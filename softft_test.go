package softft

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

const testKernel = `
// Running-sum filter with a CRC over the input: state variables (acc, crc)
// plus per-element soft computation.
global int in[256];
global int tab[16];
global int out[256];
global int crcout[1];

void main() {
	int acc = 0;
	int crc = 0xff;
	for (int i = 0; i < 256; i += 1) {
		int v = in[i];
		crc = ((crc << 1) ^ tab[(v ^ crc) & 15]) & 0xffff;
		acc = (acc * 3 + v) & 0xffff;
		out[i] = (v * 7 + acc) & 255;
	}
	crcout[0] = crc;
}`

func testInput() *Input {
	vals := make([]int64, 256)
	for i := range vals {
		vals[i] = int64((i*31 + 7) % 251)
	}
	tab := make([]int64, 16)
	for i := range tab {
		tab[i] = int64(i*i*37 + 11)
	}
	return NewInput().SetInts("in", vals).SetInts("tab", tab)
}

func TestCompileAndRun(t *testing.T) {
	prog, err := Compile("kernel", testKernel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(testInput())
	if err != nil {
		t.Fatal(err)
	}
	if res.Dyn == 0 || res.Cycles == 0 {
		t.Fatal("no execution recorded")
	}
	out, err := res.Ints("out")
	if err != nil {
		t.Fatal(err)
	}
	nonzero := false
	for _, v := range out {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("output all zeros")
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	if _, err := Compile("bad", "void main() { undeclared = 1; }"); err == nil {
		t.Fatal("bad program accepted")
	}
}

func TestProtectModesPreserveOutput(t *testing.T) {
	prog, err := Compile("kernel", testKernel)
	if err != nil {
		t.Fatal(err)
	}
	base, err := prog.Run(testInput())
	if err != nil {
		t.Fatal(err)
	}
	golden, _ := base.Ints("out")

	prof, err := prog.ProfileValues(testInput())
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []Mode{DuplicationOnly, DuplicationWithValueChecks, FullDuplication} {
		hard, stats, err := prog.Protect(mode, prof)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if mode != DuplicationWithValueChecks && stats.DuplicatedInstrs == 0 {
			t.Errorf("%s: nothing duplicated", mode)
		}
		if mode == DuplicationWithValueChecks && stats.ValueChecks == 0 {
			t.Errorf("%s: no value checks", mode)
		}
		res, err := hard.Run(testInput())
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		out, _ := res.Ints("out")
		for i := range golden {
			if out[i] != golden[i] {
				t.Fatalf("%s changed output[%d]", mode, i)
			}
		}
		if res.Cycles <= base.Cycles {
			t.Errorf("%s: protection cost nothing (%d <= %d)", mode, res.Cycles, base.Cycles)
		}
	}
}

func TestProtectRequiresProfileForValueChecks(t *testing.T) {
	prog, _ := Compile("kernel", testKernel)
	if _, _, err := prog.Protect(DuplicationWithValueChecks, nil); err == nil {
		t.Fatal("value-check protection without profile accepted")
	}
}

func TestInjectFaultsThroughPublicAPI(t *testing.T) {
	prog, _ := Compile("kernel", testKernel)
	prof, _ := prog.ProfileValues(testInput())
	hard, _, err := prog.Protect(DuplicationWithValueChecks, prof)
	if err != nil {
		t.Fatal(err)
	}
	out, err := hard.InjectFaults(testInput(), Campaign{Trials: 150, Seed: 7, Output: "out"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials != 150 {
		t.Fatalf("trials = %d", out.Trials)
	}
	total := out.Masked + out.HWDetected + out.SWDetected + out.Failures + out.USDCs
	if total != out.Trials {
		t.Fatalf("outcomes sum to %d", total)
	}
	if out.Coverage() < 0.5 {
		t.Errorf("coverage %.2f implausibly low", out.Coverage())
	}
	if !strings.Contains(out.String(), "coverage") {
		t.Error("String() missing coverage")
	}
}

func TestBenchmarkAccess(t *testing.T) {
	names := Benchmarks()
	if len(names) != 13 {
		t.Fatalf("benchmarks = %d", len(names))
	}
	b, err := GetBenchmark("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.Description(), "Clustering") && !strings.Contains(b.Description(), "K-means") {
		t.Errorf("description = %q", b.Description())
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(b.TestInput())
	if err != nil {
		t.Fatal(err)
	}
	if res.Dyn == 0 {
		t.Fatal("benchmark did not run")
	}
	if _, err := GetBenchmark("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestBenchmarkCampaignViaFacade(t *testing.T) {
	b, _ := GetBenchmark("tiff2bw")
	prog, _ := b.Program()
	prof, err := prog.ProfileValues(b.TrainInput())
	if err != nil {
		t.Fatal(err)
	}
	hard, _, err := prog.Protect(DuplicationWithValueChecks, prof)
	if err != nil {
		t.Fatal(err)
	}
	c := b.NewCampaign(80)
	out, err := hard.InjectFaults(b.TestInput(), c)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials != 80 {
		t.Fatalf("trials = %d", out.Trials)
	}
}

func TestTuningKnobs(t *testing.T) {
	prog, _ := Compile("kernel", testKernel)
	prof, _ := prog.ProfileValues(testInput())
	_, loose, err := prog.ProtectWith(DuplicationWithValueChecks, prof, WithRangeThreshold(1<<30), WithMinRangeCoverage(0.5))
	if err != nil {
		t.Fatal(err)
	}
	_, tight, err := prog.ProtectWith(DuplicationWithValueChecks, prof, WithRangeThreshold(1), WithMinRangeCoverage(0.999999))
	if err != nil {
		t.Fatal(err)
	}
	if loose.ValueChecks < tight.ValueChecks {
		t.Errorf("loose tuning produced fewer checks (%d) than tight (%d)", loose.ValueChecks, tight.ValueChecks)
	}
}

func TestInjectFaultsWithRecovery(t *testing.T) {
	prog, _ := Compile("kernel", testKernel)
	hard, _, err := prog.Protect(DuplicationOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := hard.InjectFaultsWithRecovery(testInput(), Campaign{Trials: 150, Seed: 11, Output: "out"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Recovered == 0 {
		t.Fatal("nothing recovered")
	}
	if out.Overhead <= 0 {
		t.Errorf("overhead = %v", out.Overhead)
	}
}

// TestRecoveryHonoursCampaignFields checks that restart recovery runs on
// the campaign scheduler rather than beside it: a Journal it cannot honour
// is an error, and the per-trial hooks fire once per completed trial.
func TestRecoveryHonoursCampaignFields(t *testing.T) {
	prog, _ := Compile("kernel", testKernel)
	hard, _, err := prog.Protect(DuplicationOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "recovery.journal")
	if _, err := hard.InjectFaultsWithRecovery(testInput(), Campaign{Trials: 40, Output: "out", Journal: journal}); err == nil {
		t.Error("recovery accepted a Journal it does not write")
	}

	var mu sync.Mutex
	calls, done := 0, 0 // done: the largest decided count OnProgress reported
	c := Campaign{
		Trials: 40, Seed: 11, Output: "out", Workers: 2,
		OnTrial:    func(int) { mu.Lock(); calls++; mu.Unlock() },
		OnProgress: func(d, _, _ int) { mu.Lock(); done = max(done, d); mu.Unlock() },
	}
	out, err := hard.InjectFaultsWithRecovery(testInput(), c)
	if err != nil {
		t.Fatal(err)
	}
	if calls != c.Trials {
		t.Errorf("OnTrial fired %d times for %d trials", calls, c.Trials)
	}
	if out.Trials != done || out.Trials != c.Trials {
		t.Errorf("RecoveryOutcome.Trials = %d, completed trials %d of %d", out.Trials, done, c.Trials)
	}
}

func TestTraceThroughFacade(t *testing.T) {
	prog, _ := Compile("kernel", testKernel)
	var buf bytes.Buffer
	res, err := prog.Trace(testInput(), &buf, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dyn == 0 {
		t.Fatal("no execution")
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 100 {
		t.Fatalf("trace lines = %d, want 100 (limit)", lines)
	}
	if !strings.Contains(buf.String(), "main") {
		t.Error("trace missing function name")
	}
}

func TestOutcomesHelpers(t *testing.T) {
	o := &Outcomes{Trials: 200, Masked: 150, HWDetected: 20, SWDetected: 20, Failures: 5, USDCs: 5}
	if got := o.Coverage(); got != 0.95 {
		t.Errorf("coverage = %v", got)
	}
	if got := o.USDCRate(); got != 0.025 {
		t.Errorf("usdc rate = %v", got)
	}
	empty := &Outcomes{}
	if empty.Coverage() != 0 || empty.USDCRate() != 0 {
		t.Error("empty outcomes should report zero rates")
	}
}

func TestOutcomesStringZeroTrials(t *testing.T) {
	// Trials == 0 is reachable (all trials quarantined, or cancellation
	// before the first trial lands); String must say so instead of printing
	// a meaningless 0% coverage line.
	empty := &Outcomes{}
	if got := empty.String(); got != "no completed trials" {
		t.Errorf("empty String() = %q", got)
	}
	quarantined := &Outcomes{Anomalies: []Anomaly{{Trial: 0, Reason: "panic"}, {Trial: 1, Reason: "timeout"}}}
	if got := quarantined.String(); got != "no completed trials [2 quarantined]" {
		t.Errorf("quarantined String() = %q", got)
	}
	partial := &Outcomes{Trials: 10, Masked: 10, Partial: true}
	if got := partial.String(); !strings.Contains(got, "[partial]") || !strings.Contains(got, "trials=10") {
		t.Errorf("partial String() = %q", got)
	}
	early := &Outcomes{Trials: 40, Masked: 40, EarlyStopped: true, TrialsSaved: 60}
	if got := early.String(); !strings.Contains(got, "early stop") || !strings.Contains(got, "60 trials saved") {
		t.Errorf("early-stop String() = %q", got)
	}
}

func TestCampaignRejectsNegativeCounts(t *testing.T) {
	prog, err := Compile("kernel", testKernel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.InjectFaults(testInput(), Campaign{Trials: -1, Output: "out"}); err == nil {
		t.Error("negative Trials accepted")
	}
	if _, err := prog.InjectFaults(testInput(), Campaign{Trials: 10, Workers: -2, Output: "out"}); err == nil {
		t.Error("negative Workers accepted")
	}
	// The recovery path shares campaignSetup and must reject identically.
	if _, err := prog.InjectFaultsWithRecovery(testInput(), Campaign{Trials: -1, Output: "out"}); err == nil {
		t.Error("recovery: negative Trials accepted")
	}
}

func TestCampaignJournalResumeThroughPublicAPI(t *testing.T) {
	prog, err := Compile("kernel", testKernel)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign.journal")
	c := Campaign{Trials: 30, Seed: 7, Output: "out", Journal: path}
	full, err := prog.InjectFaults(testInput(), c)
	if err != nil {
		t.Fatal(err)
	}

	// Chop the journal mid-file and resume: the outcomes must be identical
	// and some trials must have been replayed rather than re-run.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	c.Resume = true
	resumed, err := prog.InjectFaults(testInput(), c)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Replayed == 0 {
		t.Error("resume replayed nothing from a half-complete journal")
	}
	a, b := *full, *resumed
	a.Replayed, b.Replayed = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("resumed outcomes differ:\nfull=%+v\nresumed=%+v", full, resumed)
	}
}

func TestCampaignFaultModelField(t *testing.T) {
	prog, err := Compile("kernel", testKernel)
	if err != nil {
		t.Fatal(err)
	}
	// Default campaigns resolve to the paper's model.
	out, err := prog.InjectFaults(testInput(), Campaign{Trials: 20, Seed: 3, Output: "out"})
	if err != nil {
		t.Fatal(err)
	}
	if out.FaultModel != "reg-flip" {
		t.Fatalf("default FaultModel = %q, want reg-flip", out.FaultModel)
	}
	// Every registered model runs through the facade and reports itself.
	for _, name := range FaultModels() {
		out, err := prog.InjectFaults(testInput(), Campaign{Trials: 10, Seed: 3, Output: "out", FaultModel: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.FaultModel != name {
			t.Fatalf("FaultModel = %q, want %q", out.FaultModel, name)
		}
		lo, hi := out.CoverageInterval()
		if lo < 0 || hi > 1 || lo > out.Coverage() || hi < out.Coverage() {
			t.Fatalf("%s: coverage interval [%f,%f] does not bracket %f", name, lo, hi, out.Coverage())
		}
	}
	// Unknown models are rejected with the registered set.
	if _, err := prog.InjectFaults(testInput(), Campaign{Trials: 10, Output: "out", FaultModel: "cosmic-ray"}); err == nil || !strings.Contains(err.Error(), "unknown fault model") {
		t.Fatalf("unknown model: %v", err)
	}
}
