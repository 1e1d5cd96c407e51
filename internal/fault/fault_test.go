package fault_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/profile"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// smallCampaign runs a reduced campaign for tests.
func smallCampaign(t *testing.T, name string, mode string, trials int) *fault.Report {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("no workload %s", name)
	}
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prot := mod.Clone()
	var prof *profile.Data
	if mode == core.SchemeDupVal {
		mach, err := vm.New(mod.Clone(), vm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Bind(mach, workloads.Train); err != nil {
			t.Fatal(err)
		}
		mach.Reset()
		col := profile.NewCollector(profile.DefaultBins)
		if res := mach.Run(vm.RunOptions{Profiler: col}); res.Trap != nil {
			t.Fatalf("profiling trapped: %v", res.Trap)
		}
		prof = col.Data()
	}
	if _, err := core.Protect(prot, mode, prof, core.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	cfg := fault.DefaultConfig()
	cfg.Trials = trials
	rep, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, mode, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCampaignCountsAreConsistent(t *testing.T) {
	rep := smallCampaign(t, "tiff2bw", core.SchemeOriginal, 150)
	ta := rep.Tally
	if ta.N != 150 {
		t.Fatalf("N = %d", ta.N)
	}
	sum := 0
	for _, c := range ta.Count {
		sum += c
	}
	if sum != ta.N {
		t.Fatalf("outcome counts sum to %d != %d", sum, ta.N)
	}
	if ta.SDC != ta.ASDC+ta.USDCLarge+ta.USDCSmall {
		t.Fatalf("SDC split inconsistent: %d != %d+%d+%d", ta.SDC, ta.ASDC, ta.USDCLarge, ta.USDCSmall)
	}
	if ta.Count[fault.USDC] != ta.USDCLarge+ta.USDCSmall {
		t.Fatalf("fault.USDC attribution inconsistent")
	}
	if ta.Count[fault.SWDetect] != 0 {
		t.Fatal("unmodified binary cannot have SWDetects (no checks present)")
	}
	if cov := ta.Coverage(); cov < 0 || cov > 1 {
		t.Fatalf("coverage = %v", cov)
	}
}

func TestCampaignIsDeterministic(t *testing.T) {
	r1 := smallCampaign(t, "kmeans", core.SchemeOriginal, 60)
	r2 := smallCampaign(t, "kmeans", core.SchemeOriginal, 60)
	if r1.Tally != r2.Tally {
		t.Fatalf("tallies differ:\n%+v\n%+v", r1.Tally, r2.Tally)
	}
	for i := range r1.Trials {
		if r1.Trials[i].Outcome != r2.Trials[i].Outcome {
			t.Fatalf("trial %d outcome differs", i)
		}
	}
}

func TestProtectionProducesSWDetects(t *testing.T) {
	rep := smallCampaign(t, "g721dec", core.SchemeDup, 200)
	if rep.Tally.Count[fault.SWDetect] == 0 {
		t.Fatalf("DupOnly produced no SWDetects in 200 trials: %+v", rep.Tally)
	}
	if rep.Tally.SWDetectDup == 0 {
		t.Fatal("SWDetects not attributed to duplication checks")
	}
}

func TestDupValUsesValueChecks(t *testing.T) {
	rep := smallCampaign(t, "jpegdec", core.SchemeDupVal, 200)
	if rep.Tally.Count[fault.SWDetect] == 0 {
		t.Fatalf("DupVal produced no SWDetects: %+v", rep.Tally)
	}
	t.Logf("fault.SWDetect dup=%d value=%d", rep.Tally.SWDetectDup, rep.Tally.SWDetectValue)
}

// TestABFTDetectsKernelFaults: the ABFT scheme must convert a nonzero
// share of injected faults into software detections attributed to its
// kernel-exit checksum comparisons — and to nothing else, since abft alone
// inserts no other check kind.
func TestABFTDetectsKernelFaults(t *testing.T) {
	rep := smallCampaign(t, "kmeans", core.SchemeABFT, 250)
	if rep.Tally.Count[fault.SWDetect] == 0 {
		t.Fatalf("ABFT produced no SWDetects in 250 trials: %+v", rep.Tally)
	}
	if rep.Tally.SWDetectABFT == 0 {
		t.Fatal("SWDetects not attributed to ABFT checksum checks")
	}
	if rep.Tally.SWDetectDup != 0 || rep.Tally.SWDetectValue != 0 || rep.Tally.SWDetectCFC != 0 {
		t.Fatalf("ABFT-only module attributed detections to other check kinds: %+v", rep.Tally)
	}
	t.Logf("abft: %d/%d SWDetects, coverage %.3f",
		rep.Tally.SWDetectABFT, rep.Tally.N, rep.Tally.Coverage())
}

// TestProtectionReducesUSDCs is the paper's headline claim in miniature:
// protected binaries must not have more USDCs than the original, and
// coverage must not degrade.
func TestProtectionReducesUSDCs(t *testing.T) {
	const trials = 250
	for _, name := range []string{"g721dec", "segm"} {
		orig := smallCampaign(t, name, core.SchemeOriginal, trials)
		dup := smallCampaign(t, name, core.SchemeDup, trials)
		if dup.Tally.Count[fault.USDC] > orig.Tally.Count[fault.USDC] {
			t.Errorf("%s: DupOnly USDCs %d > original %d", name, dup.Tally.Count[fault.USDC], orig.Tally.Count[fault.USDC])
		}
		t.Logf("%s: fault.USDC %d -> %d, coverage %.3f -> %.3f", name,
			orig.Tally.Count[fault.USDC], dup.Tally.Count[fault.USDC],
			orig.Tally.Coverage(), dup.Tally.Coverage())
	}
}

// TestCampaignCancellation checks a cancelled context stops the campaign
// between trials: Run degrades gracefully to a valid partial Report, while
// RunWithRecovery keeps its error-on-cancel contract.
func TestCampaignCancellation(t *testing.T) {
	w := workloads.ByName("kmeans")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := fault.DefaultConfig()
	cfg.Trials = 50
	rep, err := fault.Run(ctx, w.Target(workloads.Test), mod.Clone(), "Original", cfg)
	if err != nil {
		t.Fatalf("Run: expected partial report on cancel, got error %v", err)
	}
	if !rep.Partial {
		t.Fatalf("Run: cancelled campaign not marked Partial: %+v", rep.Tally)
	}
	if rep.Tally.N >= cfg.Trials {
		t.Fatalf("Run: pre-cancelled campaign completed all %d trials", rep.Tally.N)
	}
	if _, err := fault.RunWithRecovery(ctx, w.Target(workloads.Test), mod.Clone(), "Original", cfg); err != context.Canceled {
		t.Fatalf("RunWithRecovery: expected context.Canceled, got %v", err)
	}
}

func TestFalsePositiveMeasurement(t *testing.T) {
	w := workloads.ByName("jpegdec")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// Profile on train, protect, measure check fires on test input.
	mach, _ := vm.New(mod.Clone(), vm.DefaultConfig())
	if err := w.Bind(mach, workloads.Train); err != nil {
		t.Fatal(err)
	}
	mach.Reset()
	col := profile.NewCollector(profile.DefaultBins)
	mach.Run(vm.RunOptions{Profiler: col})

	prot := mod.Clone()
	st, err := core.Protect(prot, core.SchemeDupVal, col.Data(), core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fault.FalsePositives(w.Target(workloads.Test), prot)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dyn == 0 {
		t.Fatal("no instructions executed")
	}
	if st.ValueChecks == 0 {
		t.Fatal("protected module has no value checks")
	}
	t.Logf("false positives: %d fails in %d instrs (%d checks); 1 per %.0f",
		rep.CheckFails, rep.Dyn, st.ValueChecks, rep.InstrPerFail)
}

func TestGoldenFiringChecksAreDisabled(t *testing.T) {
	// A campaign on a DupVal binary must not classify every trial as
	// fault.SWDetect due to a persistently false-firing check.
	rep := smallCampaign(t, "svm", core.SchemeDupVal, 100)
	if rep.Tally.Count[fault.SWDetect] == rep.Tally.N {
		t.Fatal("all trials fault.SWDetect: golden-firing checks not squelched")
	}
	t.Logf("disabled checks: %d", rep.DisabledChecks)
}
