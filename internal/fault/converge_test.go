package fault

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/vm"
)

// convergeSrc is a loop-heavy workload for the convergence fast-forward
// tests: most register corruptions land in short-lived loop temporaries, so
// under FullDup the bulk of trials are masked and re-converge to the golden
// state within an iteration or two of the injection.
const convergeSrc = `
global int out[4];
void main() {
	int acc = 0;
	for (int i = 0; i < 400; i += 1) {
		acc = acc + ((i * 7) & 255);
	}
	out[0] = acc;
}
`

// TestConvergenceShortCircuit drives finishTrial with the snapshot ladder
// against finishTrial without it across many trials of the same fault
// stream: every trial's record and cycle count must be bit-identical, and
// at least some masked trials must have actually short-circuited —
// observable as the machine still being suspended (Snapshot succeeds) at a
// dyn short of the run's end — or the fast-forward is dead code. Wherever
// the shortcut fires, the full-suffix twin must have cost exactly the
// golden run's cycles: that is what restart recovery records for a
// short-circuited trial.
func TestConvergenceShortCircuit(t *testing.T) {
	mod, err := lang.Compile("converge", convergeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Protect(mod, core.SchemeFullDup, nil, core.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	target := Target{
		Name:       "converge",
		Output:     "out",
		Bind:       func(m *vm.Machine) error { return nil },
		Measure:    func(golden, test []uint64) float64 { return 0 },
		Acceptable: func(float64) bool { return false },
	}
	cfg := DefaultConfig()

	gm, err := newMachine(target, mod, 0, cfg.Engine)
	if err != nil {
		t.Fatal(err)
	}
	res := gm.Run(vm.RunOptions{})
	if res.Trap != nil {
		t.Fatalf("golden run trapped: %v", res.Trap)
	}
	golden, err := gm.ReadGlobal(target.Output)
	if err != nil {
		t.Fatal(err)
	}
	goldenDyn := res.Dyn
	maxDyn := goldenDyn * cfg.WatchdogFactor

	snapAt := []int64{goldenDyn / 4, goldenDyn / 2, 3 * goldenDyn / 4}
	snaps, err := PrefixSnapshots(target, mod, cfg, nil, maxDyn, snapAt)
	if err != nil {
		t.Fatal(err)
	}

	solo, err := newMachine(target, mod, maxDyn, cfg.Engine)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := newMachine(target, mod, maxDyn, cfg.Engine)
	if err != nil {
		t.Fatal(err)
	}

	c := &campaign{cfg: cfg, target: target, golden: golden, rep: &Report{GoldenCycles: res.Cycles}}
	ws := c.newWorker(nil)
	shortCircuits, masked := 0, 0
	for trial := 0; trial < 60; trial++ {
		p1 := drawPlan(MustModel(cfg.Model), cfg, goldenDyn, trial, ws.src, ws.rng)
		solo.Reset()
		tr1, cyc1, to1 := c.finishTrial(solo, p1, nil, nil)

		p2 := drawPlan(MustModel(cfg.Model), cfg, goldenDyn, trial, ws.src, ws.rng)
		conv.Reset()
		tr2, cyc2, to2 := c.finishTrial(conv, p2, nil, snaps)

		if tr1 != tr2 || cyc1 != cyc2 || to1 != to2 {
			t.Fatalf("trial %d: solo %+v (cycles %d, timeout %v) vs converging %+v (cycles %d, timeout %v)",
				trial, tr1, cyc1, to1, tr2, cyc2, to2)
		}
		if tr1.Outcome == Masked {
			masked++
		}
		// A machine that short-circuited is still suspended mid-run; only a
		// suspended fast-engine machine can be snapshotted.
		if _, err := conv.Snapshot(); err == nil {
			if tr2.Outcome != Masked {
				t.Fatalf("trial %d: short-circuited with outcome %v", trial, tr2.Outcome)
			}
			if cyc1 != res.Cycles {
				t.Fatalf("trial %d: short-circuited, but its full suffix cost %d cycles, golden %d", trial, cyc1, res.Cycles)
			}
			shortCircuits++
		}
	}
	if masked == 0 {
		t.Fatal("workload produced no masked trials; the test exercises nothing")
	}
	if shortCircuits == 0 {
		t.Fatal("no trial short-circuited through a snapshot crossing")
	}
	t.Logf("%d/60 trials masked, %d short-circuited", masked, shortCircuits)
}
