package fault_test

// Campaign-level fusion and convergence equivalence: the Fuse and Converge
// knobs are throughput-only, so flipping either must leave the campaign
// Report bit-identical — per-trial records included — on every positioning
// path: Reset per trial, the golden cursor (where convergence fast-forwards
// masked suffixes), and the durable journal.

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workloads"
)

// TestCampaignFusionEquivalence is the acceptance matrix: all workloads ×
// all registered schemes on the default golden-cursor path, fused vs
// unfused. Under the race detector the matrix trims to representative
// cells, like the checkpoint suite.
func TestCampaignFusionEquivalence(t *testing.T) {
	modes := core.SchemeNames()
	names := make([]string, 0, 13)
	for _, w := range workloads.All() {
		names = append(names, w.Name)
	}
	if raceEnabled {
		names = []string{"tiff2bw", "g721dec", "svm", "kmeans"}
		modes = []string{core.SchemeOriginal, core.SchemeFullDup}
	}
	for _, name := range names {
		for _, mode := range modes {
			name, mode := name, mode
			t.Run(name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				w := workloads.ByName(name)
				prot := protectedFor(t, w, mode)
				run := func(fuse int) *fault.Report {
					cfg := fault.DefaultConfig()
					cfg.Trials = 12
					cfg.Fuse = fuse
					rep, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, mode, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return rep
				}
				diffReports(t, name+"/"+mode, run(0), run(-1))
			})
		}
	}
}

// TestCampaignFusionEquivalencePaths covers the remaining scheduler paths
// on representative cells: Reset-per-trial campaigns, a masked-heavy
// cursor campaign, the branch-target fault model, and a journaled campaign resumed from a
// truncated file with the opposite fusion setting — the journal must not
// record (and resume must not depend on) the knob.
func TestCampaignFusionEquivalencePaths(t *testing.T) {
	t.Run("scratch", func(t *testing.T) {
		t.Parallel()
		w := workloads.ByName("kmeans")
		prot := protectedFor(t, w, core.SchemeDup)
		run := func(fuse int) *fault.Report {
			cfg := fault.DefaultConfig()
			cfg.Trials = 30
			cfg.Checkpoints = -1
			cfg.Fuse = fuse
			rep, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, "DupOnly", cfg)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		diffReports(t, "scratch", run(0), run(-1))
	})
	t.Run("cursor", func(t *testing.T) {
		t.Parallel()
		w := workloads.ByName("g721dec")
		prot := protectedFor(t, w, core.SchemeFullDup)
		run := func(fuse int) *fault.Report {
			cfg := fault.DefaultConfig()
			cfg.Trials = 40
			cfg.Fuse = fuse
			rep, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, "FullDup", cfg)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		diffReports(t, "cursor", run(0), run(-1))
	})
	t.Run("branch", func(t *testing.T) {
		t.Parallel()
		w := workloads.ByName("g721enc")
		prot := protectedFor(t, w, core.SchemeDup)
		run := func(fuse int) *fault.Report {
			cfg := fault.DefaultConfig()
			cfg.Trials = 30
			cfg.Model = fault.ModelBranchTarget
			cfg.Fuse = fuse
			rep, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, "DupOnly", cfg)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		diffReports(t, "branch", run(0), run(-1))
	})
	t.Run("journal", func(t *testing.T) {
		t.Parallel()
		w := workloads.ByName("tiff2bw")
		prot := protectedFor(t, w, core.SchemeOriginal)
		path := filepath.Join(t.TempDir(), "campaign.journal")
		run := func(fuse int, resume bool) *fault.Report {
			cfg := fault.DefaultConfig()
			cfg.Trials = 12
			cfg.Fuse = fuse
			cfg.JournalPath = path
			cfg.Resume = resume
			rep, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, "Original", cfg)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		full := run(0, false)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()/2); err != nil {
			t.Fatal(err)
		}
		// Resume the fused journal with fusion off: replayed and re-run
		// trials must stitch into the same report.
		diffReports(t, "journal", run(-1, true), full)
	})
}

// TestCampaignConvergenceEquivalence checks the convergence fast-forward:
// cursor campaigns with the golden ladder (Converge on) must match
// full-suffix runs (Converge off) — masked trials
// are cut short only when the machine state provably re-joined the golden
// trajectory. FullDup is the masked-heavy scheme the fast-forward targets;
// Original covers the no-detection shape, the branch model the
// shifted-trigger scheduler, and the memory models the live-memory
// compare, re-arming plans included.
func TestCampaignConvergenceEquivalence(t *testing.T) {
	cells := []struct {
		workload  string
		mode      string
		technique string
		model     string
	}{
		{"tiff2bw", core.SchemeFullDup, "FullDup", fault.ModelRegFlip},
		{"kmeans", core.SchemeFullDup, "FullDup", fault.ModelRegFlip},
		{"svm", core.SchemeOriginal, "Original", fault.ModelRegFlip},
		{"g721dec", core.SchemeDup, "DupOnly", fault.ModelRegFlip},
		{"kmeans", core.SchemeFullDup, "FullDup", fault.ModelBranchTarget},
		{"kmeans", core.SchemeFullDup, "FullDup", fault.ModelMemFlip},
		{"g721dec", core.SchemeDup, "DupOnly", fault.ModelBurst},
		{"kmeans", core.SchemeABFT, "ABFT", fault.ModelStuckAt},
		{"jpegenc", core.SchemeDupVal, "DupVal", fault.ModelIntermittent},
	}
	if raceEnabled {
		cells = cells[:2]
	}
	for _, c := range cells {
		c := c
		name := c.workload + "/" + c.mode
		if c.model != fault.ModelRegFlip {
			name += "/" + c.model
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := workloads.ByName(c.workload)
			prot := protectedFor(t, w, c.mode)
			run := func(conv int) *fault.Report {
				cfg := fault.DefaultConfig()
				cfg.Trials = 40
				cfg.Model = c.model
				cfg.Converge = conv
				rep, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, c.technique, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			diffReports(t, name, run(0), run(-1))
		})
	}
}
