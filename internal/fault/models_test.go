package fault_test

// Black-box per-model campaign coverage: every registered fault model must
// run a campaign end to end on the public API, and a journaled campaign
// must refuse to resume under a different model — the model is part of the
// journal's identity, and silently mixing trial streams would corrupt the
// tally.

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func TestEveryModelCampaignSmoke(t *testing.T) {
	w := workloads.ByName("g721dec")
	prot := protectedFor(t, w, core.SchemeDup)
	for _, name := range fault.ModelNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := fault.DefaultConfig()
			cfg.Trials = 12
			cfg.Model = name
			rep, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, "DupOnly", cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Tally.N != cfg.Trials {
				t.Fatalf("tally N = %d, want %d (anomalies: %+v)", rep.Tally.N, cfg.Trials, rep.Anomalies)
			}
			if len(rep.Anomalies) != 0 || rep.Partial {
				t.Fatalf("unexpected anomalies/partial: %+v", rep)
			}
		})
	}
}

// TestMemHiAfterFaultyTrials runs trials of every registered fault model on
// one reused machine and checks vm's written-memory invariant — every word
// at or above the bound is zero — after each faulty run and after restoring
// a golden ladder snapshot onto the machine the trial left dirty. Memory
// faults write through SetMemWord, possibly into stack words no store has
// reached, so they must raise the bound themselves. jpegenc writes stack
// frames, so the trials' stores and faults reach above the globals.
func TestMemHiAfterFaultyTrials(t *testing.T) {
	w := workloads.ByName("jpegenc")
	prot := protectedFor(t, w, core.SchemeOriginal)
	target := w.Target(workloads.Test)
	golden, _, _, snaps, err := fault.GoldenLadder(target, prot, fault.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no ladder: the test restores nothing")
	}
	for _, name := range fault.ModelNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := fault.DefaultConfig()
			cfg.Model = name
			vcfg := vm.DefaultConfig()
			vcfg.MaxDyn = golden.Dyn*cfg.WatchdogFactor + 100_000
			mach, err := vm.New(prot, vcfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := target.Bind(mach); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				if _, err := fault.RunTrial(mach, cfg, golden.Dyn, i); err != nil {
					t.Fatal(err)
				}
				if err := mach.CheckMemHi(); err != nil {
					t.Fatalf("trial %d: after the faulty run: %v", i, err)
				}
				snap := snaps[i%len(snaps)]
				if err := mach.Restore(snap); err != nil {
					t.Fatal(err)
				}
				if err := mach.CheckMemHi(); err != nil {
					t.Fatalf("trial %d: after restoring the ladder snapshot at dyn %d: %v", i, snap.Dyn(), err)
				}
				if !mach.MatchesSnapshot(snap) {
					t.Fatalf("trial %d: restored machine does not match the snapshot at dyn %d", i, snap.Dyn())
				}
			}
		})
	}
}

func TestCrossModelResumeRejected(t *testing.T) {
	w := workloads.ByName("tiff2bw")
	prot := protectedFor(t, w, core.SchemeOriginal)
	path := filepath.Join(t.TempDir(), "campaign.journal")

	cfg := fault.DefaultConfig()
	cfg.Trials = 8
	cfg.Model = fault.ModelMemFlip
	cfg.JournalPath = path
	if _, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, "Original", cfg); err != nil {
		t.Fatal(err)
	}

	cfg.Model = fault.ModelStuckAt
	cfg.Resume = true
	_, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, "Original", cfg)
	if err == nil {
		t.Fatal("resume under a different fault model accepted")
	}
	if !strings.Contains(err.Error(), "fault model") || !strings.Contains(err.Error(), fault.ModelMemFlip) {
		t.Fatalf("rejection does not name the model mismatch: %v", err)
	}

	// Same model resumes fine (identity check is on the resolved name).
	cfg.Model = fault.ModelMemFlip
	rep, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, "Original", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != cfg.Trials {
		t.Fatalf("replayed %d trials, want %d", rep.Replayed, cfg.Trials)
	}
}
