package fault_test

// Checkpoint tests: the recovery campaign on every positioning path, the
// golden run's snapshot ladder against prefix snapshots, and the ladder's
// one shape. The campaign-level checkpoint comparisons are rows of the
// equivalence wall (equiv_test.go); diffReports is the wall's comparison.

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// diffReports fails the test unless the two campaign reports are
// bit-identical in every field the campaign publishes.
func diffReports(t *testing.T, label string, ckpt, scratch *fault.Report) {
	t.Helper()
	if ckpt.Tally != scratch.Tally {
		t.Fatalf("%s: tallies differ:\nckpt=%+v\nscratch=%+v", label, ckpt.Tally, scratch.Tally)
	}
	if ckpt.GoldenDyn != scratch.GoldenDyn || ckpt.GoldenCycles != scratch.GoldenCycles {
		t.Fatalf("%s: golden stats differ: ckpt=(%d,%d) scratch=(%d,%d)",
			label, ckpt.GoldenDyn, ckpt.GoldenCycles, scratch.GoldenDyn, scratch.GoldenCycles)
	}
	if ckpt.DisabledChecks != scratch.DisabledChecks {
		t.Fatalf("%s: DisabledChecks: ckpt=%d scratch=%d", label, ckpt.DisabledChecks, scratch.DisabledChecks)
	}
	for i := range ckpt.Trials {
		if ckpt.Trials[i] != scratch.Trials[i] {
			t.Fatalf("%s: trial %d differs:\nckpt=%+v\nscratch=%+v",
				label, i, ckpt.Trials[i], scratch.Trials[i])
		}
	}
	// Anomalies must agree in identity (trial, reproducer seed, reason);
	// panic stacks are path-specific by nature and are not compared.
	if len(ckpt.Anomalies) != len(scratch.Anomalies) {
		t.Fatalf("%s: anomaly count: %d vs %d\na=%+v\nb=%+v",
			label, len(ckpt.Anomalies), len(scratch.Anomalies), ckpt.Anomalies, scratch.Anomalies)
	}
	for i := range ckpt.Anomalies {
		a, b := ckpt.Anomalies[i], scratch.Anomalies[i]
		if a.Trial != b.Trial || a.Seed != b.Seed || a.Reason != b.Reason {
			t.Fatalf("%s: anomaly %d differs:\na=%+v\nb=%+v", label, i, a, b)
		}
	}
	if ckpt.Partial != scratch.Partial || ckpt.EarlyStopped != scratch.EarlyStopped {
		t.Fatalf("%s: partial/early-stop flags differ: (%v,%v) vs (%v,%v)",
			label, ckpt.Partial, ckpt.EarlyStopped, scratch.Partial, scratch.EarlyStopped)
	}
}

// sparseLadder returns a LadderProbe that spaces a golden run of goldenDyn
// instructions' ladder goldenDyn/n apart: n-1 or so snapshots, wide bins.
func sparseLadder(goldenDyn, n int64) *fault.LadderProbe {
	return &fault.LadderProbe{Interval: max(goldenDyn/n, 1)}
}

// ladderCtx returns a context carrying probe, or a bare one when probe is
// nil.
func ladderCtx(probe *fault.LadderProbe) context.Context {
	if probe == nil {
		return context.Background()
	}
	return fault.WithLadderProbe(context.Background(), probe)
}

// TestRecoveryCheckpointEquivalence checks the recovery campaign across
// every way the scheduler can position and finish its trials: each row must
// give a RecoveryReport identical to the Reset-per-trial reference. The
// convergence rows matter most — a short-circuited trial is priced at the
// golden cycle count rather than measured.
func TestRecoveryCheckpointEquivalence(t *testing.T) {
	w := workloads.ByName("g721dec")
	prot := protectedFor(t, w, core.SchemeDup)
	rows := []struct {
		name                           string
		engine                         vm.EngineKind
		checkpoints, converge, workers int
	}{
		{"reset", vm.EngineFast, -1, -1, 1},
		{"cursor", vm.EngineFast, 0, -1, 1},
		{"cursor+converge", vm.EngineFast, 0, 0, 4},
		{"tree", vm.EngineTree, 0, 0, 2},
	}
	var ref *fault.RecoveryReport
	for _, r := range rows {
		cfg := fault.DefaultConfig()
		cfg.Trials = 40
		cfg.Engine = r.engine
		cfg.Checkpoints, cfg.Converge, cfg.Workers = r.checkpoints, r.converge, r.workers
		rep, err := fault.RunWithRecovery(context.Background(), w.Target(workloads.Test), prot, "DupOnly", cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if ref == nil {
			ref = rep
			if ref.Recovered == 0 {
				t.Fatal("reference recovered nothing; the matrix exercises no restart")
			}
			continue
		}
		if *rep != *ref {
			t.Errorf("%s: recovery report differs:\n got=%+v\nreset=%+v", r.name, *rep, *ref)
		}
	}
}

// TestGoldenLadderMatchesPrefixSnapshots checks fact 2 of the scheduler on
// a campaign whose golden run fails checks (jpegdec under DupVal): the
// ladder the counting golden run builds must hold, at every requested
// index, exactly the state a trial's prefix — which disables those checks
// instead of counting them — reaches there. A snapshot of the counting run
// that keeps its counters must not match wherever a check has failed, or
// the comparison could not tell the two runs apart. The ladder's indices
// must also be the ones the rule gives for the golden run's length.
func TestGoldenLadderMatchesPrefixSnapshots(t *testing.T) {
	w := workloads.ByName("jpegdec")
	prot := protectedFor(t, w, core.SchemeDupVal)
	target := w.Target(workloads.Test)
	cfg := fault.DefaultConfig()
	golden, disabled, at, snaps, err := fault.GoldenLadder(target, prot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(disabled) == 0 {
		t.Fatal("the golden run fails no checks; the test compares nothing the counters could break")
	}
	if want := fault.LadderIndices(0, golden.Dyn); len(at) < 2 || !slices.Equal(at, want) {
		t.Fatalf("ladder at %v, the rule gives %v for a %d-instruction golden run", at, want, golden.Dyn)
	}
	ref, err := fault.PrefixSnapshots(target, prot, cfg, disabled, 0, at)
	if err != nil {
		t.Fatal(err)
	}
	newMach := func() *vm.Machine {
		m, err := vm.New(prot, vm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := target.Bind(m); err != nil {
			t.Fatal(err)
		}
		m.Reset()
		return m
	}
	prefix, counting := newMach(), newMach()
	failedBefore := 0
	for k, s := range snaps {
		if s.Dyn() != ref[k].Dyn() {
			t.Fatalf("index %d: ladder snapshot parked at dyn %d, prefix snapshot at %d", at[k], s.Dyn(), ref[k].Dyn())
		}
		if err := prefix.Restore(ref[k]); err != nil {
			t.Fatal(err)
		}
		if !prefix.MatchesSnapshot(s) {
			t.Fatalf("index %d: ladder snapshot differs from the DisabledChecks prefix state", at[k])
		}
		res := counting.Run(vm.RunOptions{CountChecks: true, SuspendAtDyn: at[k]})
		if res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
			t.Fatalf("counting run: expected suspension at %d, got %v", at[k], res.Trap)
		}
		if res.CheckFails > 0 {
			failedBefore++
			if counting.MatchesSnapshot(s) {
				t.Fatalf("index %d: a counting run with %d check failures matches the zeroed snapshot", at[k], res.CheckFails)
			}
		}
	}
	if failedBefore == 0 {
		t.Fatal("no check fails before any ladder index; the counters never differ")
	}
}

// TestLadderShapeIgnoresCheckpoints pins the ladder's one rule: its shape
// depends on the golden run and the LadderProbe alone, never on a
// non-negative Checkpoints. Over a spacing of a hundredth of the golden
// run, mem-flip campaigns under Checkpoints 0, 6 and 100 build the same
// ladder, thinned to at most vm.MaskRungs snapshots; the golden run records
// access masks under every such Checkpoints, 100 included; and every Report
// equals the from-scratch one.
func TestLadderShapeIgnoresCheckpoints(t *testing.T) {
	w := workloads.ByName("kmeans")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := fault.DefaultConfig()
	cfg.Trials = 60
	cfg.Model = fault.ModelMemFlip
	run := func(ckpt int, probe *fault.LadderProbe) *fault.Report {
		c := cfg
		c.Checkpoints = ckpt
		rep, err := fault.Run(ladderCtx(probe), w.Target(workloads.Test), mod, "Original", c)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	scratch := run(-1, nil)
	want := -1
	for _, ckpt := range []int{0, 6, 100} {
		probe := sparseLadder(scratch.GoldenDyn, 100)
		diffReports(t, fmt.Sprintf("mem-flip/checkpoints=%d", ckpt), run(ckpt, probe), scratch)
		if probe.Snapshots <= 6 || probe.Snapshots > vm.MaskRungs {
			t.Fatalf("checkpoints=%d: ladder holds %d snapshots, want 7-%d", ckpt, probe.Snapshots, vm.MaskRungs)
		}
		if want < 0 {
			want = probe.Snapshots
		} else if probe.Snapshots != want {
			t.Fatalf("checkpoints=%d: ladder holds %d snapshots, checkpoints=0 held %d", ckpt, probe.Snapshots, want)
		}
		c := cfg
		c.Checkpoints = ckpt
		masked, err := fault.GoldenMasks(ladderCtx(sparseLadder(scratch.GoldenDyn, 100)), w.Target(workloads.Test), mod, c)
		if err != nil {
			t.Fatal(err)
		}
		if !masked {
			t.Fatalf("checkpoints=%d: the golden run recorded no access masks", ckpt)
		}
	}
}
