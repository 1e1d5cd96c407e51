package campaignd_test

// The distributed equivalence matrix: every benchmark × every registered
// scheme, run once in-process and once sharded 3 ways across in-process
// workers over real HTTP, requiring bit-identical Outcomes. This is the
// service-level counterpart of the fault package's shard_equiv_test —
// here the full stack is in the loop: coordinator scheduling, lease
// grants, worker program construction (including value profiling),
// journaling, and the final merge. Fault models rotate across cells so
// the matrix also covers the registry beyond reg-flip.

import (
	"reflect"
	"testing"
	"time"

	softft "repro"

	"repro/internal/campaignd"
)

func TestDistributedEquivalenceMatrix(t *testing.T) {
	type cell struct {
		bench, mode, model string
	}
	// Mode j of benchmark b meets model (j-b) mod len(models): offsetting
	// by the benchmark index walks every mode through every model however
	// many modes are registered (counting cells instead pins each mode to
	// one model once there are as many modes as models).
	models := softft.FaultModels()
	n := len(models)
	var cells []cell
	for b, bench := range softft.Benchmarks() {
		for j, mode := range softft.Modes() {
			cells = append(cells, cell{bench, mode.String(), models[((j-b)%n+n)%n]})
		}
	}
	if raceEnabled {
		// Representative subset under the detector: the full grid re-runs
		// the same coordinator/worker code 65 times at 10x slowdown for
		// no extra interleaving coverage.
		trimmed := cells[:0]
		for _, c := range cells {
			switch {
			case c.bench == "tiff2bw" && c.mode == "original",
				c.bench == "g721dec" && c.mode == "dupval",
				c.bench == "svm" && c.mode == "abft",
				c.bench == "kmeans" && c.mode == "fulldup":
				trimmed = append(trimmed, c)
			}
		}
		cells = trimmed
	}

	for _, c := range cells {
		c := c
		t.Run(c.bench+"/"+c.mode+"/"+c.model, func(t *testing.T) {
			t.Parallel()
			spec := campaignd.JobSpec{
				Bench: c.bench, Mode: c.mode, FaultModel: c.model,
				Trials: 12, Seed: 2014, Shards: 3,
			}
			solo := soloOutcomes(t, spec)
			co, _ := startService(t, campaignd.Config{LeaseTTL: 5 * time.Second, Logf: nil}, 3, 1)
			id, err := co.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			st := waitDone(t, co, id)
			if st.State != "done" {
				t.Fatalf("job: %+v", st)
			}
			if !reflect.DeepEqual(st.Outcomes, solo) {
				t.Fatalf("distributed outcomes differ from solo run:\ndist=%+v\nsolo=%+v", st.Outcomes, solo)
			}
		})
	}
}

// TestDistributedComposedCFCMatchesSolo runs a composed scheme through the
// service: workers resolve "dupval+cfc" from the registry like any other
// mode, so a sharded branch-target job merges to the solo run's Outcomes,
// signature-check detections included.
func TestDistributedComposedCFCMatchesSolo(t *testing.T) {
	spec := campaignd.JobSpec{
		Bench: "segm", Mode: "dupval+cfc", FaultModel: "branch-target",
		Trials: 40, Seed: 2014, Shards: 4,
	}
	solo := soloOutcomes(t, spec)
	if solo.SWDetectedCFC == 0 {
		t.Fatalf("solo dupval+cfc run detected no branch faults by signature: %+v", solo)
	}
	co, _ := startService(t, campaignd.Config{LeaseTTL: 5 * time.Second, Logf: nil}, 2, 1)
	id, err := co.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, co, id)
	if st.State != "done" {
		t.Fatalf("job: %+v", st)
	}
	if !reflect.DeepEqual(st.Outcomes, solo) {
		t.Fatalf("distributed outcomes differ from solo run:\ndist=%+v\nsolo=%+v", st.Outcomes, solo)
	}
}
