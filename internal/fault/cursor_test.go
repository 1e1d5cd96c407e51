package fault_test

// Golden-cursor suite: trial positioning alone — each trial cloned from a
// worker's golden cursor at its trigger, with the convergence ladder off —
// must be bit-identical to Reset-per-trial campaigns (Checkpoints < 0)
// across every workload and protection mode, for reg-flip and
// branch-target faults. TestCampaignCheckpointEquivalence pins the same comparison
// with the ladder on; the supervision stack on the cursor path (panics,
// stuck trials, cancellation mid-advance, early stop, journal replay) is
// pinned by the cursor rows of the resilience and checkpoint tests. The
// tests keep the names they had when the cursor was the lockstep carrier.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// cursorVsReset runs cfg twice — Reset per trial, and cursor-positioned
// with the convergence ladder off over a sparse ladder spaced goldenDyn/rungs
// apart (sparseLadder), so bins are wide — and requires bit-identical
// reports.
func cursorVsReset(t *testing.T, label string, w *workloads.Workload, prot *ir.Module, technique string, cfg fault.Config, rungs int64) {
	t.Helper()
	run := func(ckpt, conv int, probe *fault.LadderProbe) *fault.Report {
		c := cfg
		c.Checkpoints, c.Converge = ckpt, conv
		rep, err := fault.Run(ladderCtx(probe), w.Target(workloads.Test), prot, technique, c)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	reset := run(-1, 0, nil)
	diffReports(t, label, run(0, -1, sparseLadder(reset.GoldenDyn, rungs)), reset)
}

// TestCampaignLockstepEquivalence is the acceptance matrix: all workloads ×
// all protection modes, cursor-positioned vs Reset. Under the race detector
// the matrix is trimmed to representative cells, matching the checkpoint
// suite's convention.
func TestCampaignLockstepEquivalence(t *testing.T) {
	modes := core.SchemeNames()
	names := make([]string, 0, 13)
	for _, w := range workloads.All() {
		names = append(names, w.Name)
	}
	if raceEnabled {
		names = []string{"tiff2bw", "g721dec", "svm", "kmeans"}
		modes = []string{core.SchemeOriginal, core.SchemeDupVal}
	}
	for _, name := range names {
		for _, mode := range modes {
			name, mode := name, mode
			t.Run(name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				w := workloads.ByName(name)
				prot := protectedFor(t, w, mode)
				cfg := fault.DefaultConfig()
				cfg.Trials = 12
				cursorVsReset(t, name+"/"+mode, w, prot, mode, cfg, 6)
			})
		}
	}
}

// TestCampaignLockstepEquivalenceDense packs many trials into few bins, on
// one worker, so a cursor serves long chains of trials (including
// equal-trigger duplicates, which re-clone without advancing), which the
// 12-trial matrix cannot produce.
func TestCampaignLockstepEquivalenceDense(t *testing.T) {
	w := workloads.ByName("g721dec")
	prot := protectedFor(t, w, core.SchemeDup)
	cfg := fault.DefaultConfig()
	cfg.Trials = 90
	cfg.Workers = 1
	cursorVsReset(t, "dense", w, prot, "DupOnly", cfg, 3)
}

// TestCampaignLockstepEquivalenceBranch covers the branch-target model,
// whose effective divergence point sits one dyn index before the trigger —
// including trigger 0, whose trial starts at the origin by Reset.
func TestCampaignLockstepEquivalenceBranch(t *testing.T) {
	for _, name := range []string{"kmeans", "g721enc"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := workloads.ByName(name)
			prot := protectedFor(t, w, core.SchemeDup)
			cfg := fault.DefaultConfig()
			cfg.Trials = 20
			cfg.Model = fault.ModelBranchTarget
			cursorVsReset(t, name+"/branch", w, prot, "DupOnly", cfg, 6)
		})
	}
}
