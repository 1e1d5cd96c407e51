package fault_test

// The equivalence wall: the throughput knobs (Engine, Checkpoints, Fuse,
// Converge) must leave a campaign's Report bit-identical — tally,
// per-trial records, golden-run statistics (diffReports). Each knob
// setting is a row. Each check names a cell — one campaign: workload,
// scheme, fault model, trial count, workers — a reference row, and the
// rows that must match it. Protected modules and campaign Reports are
// memoised per test binary, so a (cell, row) run that several checks name
// runs once: the grid entry points below share one protect pass and one
// Reset-per-trial reference per cell. Deleting a knob deletes its row and
// the checks that name it.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// row is one setting of the throughput knobs over DefaultConfig. A
// positive rungs spaces the snapshot ladder goldenDyn/rungs apart
// (sparseLadder), so bins are wide.
type row struct {
	name                        string
	engine                      vm.EngineKind
	checkpoints, fuse, converge int
	rungs                       int64
}

var (
	rowDefault      = row{name: "default"}
	rowReset        = row{name: "reset", checkpoints: -1}
	rowResetUnfused = row{name: "reset-unfused", checkpoints: -1, fuse: -1}
	rowSparse       = row{name: "sparse", rungs: 6}
	rowCursor       = row{name: "cursor", rungs: 6, converge: -1} // the golden cursor alone
	rowDense        = row{name: "dense", rungs: 3, converge: -1}
	rowUnfused      = row{name: "unfused", fuse: -1}
	rowConvergeOff  = row{name: "converge-off", converge: -1}
	rowTree         = row{name: "tree", engine: vm.EngineTree}
)

// cell is one campaign on a workload's test input; workers 0 is
// GOMAXPROCS.
type cell struct {
	workload, scheme, model string
	trials, workers         int
}

// check is one subtest of the wall: each of rows must reproduce ref's
// Report on cell. ref keeps the default ladder spacing.
type check struct {
	name string
	cell
	ref  row
	rows []row
}

// wall runs checks as parallel subtests.
func wall(t *testing.T, checks []check) {
	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			ref := c.report(t, c.ref, 0)
			for _, r := range c.rows {
				got := c.report(t, r, ref.GoldenDyn)
				diffReports(t, fmt.Sprintf("%s: %s vs %s", c.name, r.name, c.ref.name), got, ref)
			}
		})
	}
}

// memo is a value computed at most once per test binary.
type memo[T any] struct {
	once sync.Once
	v    T
	err  error
}

// memoised returns f's value for key in m, calling f on first use only.
// Concurrent callers of one key wait for the first.
func memoised[T any](m *sync.Map, key any, f func() (T, error)) (T, error) {
	e, _ := m.LoadOrStore(key, new(memo[T]))
	mv := e.(*memo[T])
	mv.once.Do(func() { mv.v, mv.err = f() })
	return mv.v, mv.err
}

var (
	protectedMods sync.Map // [2]string{workload, scheme} → *memo[*ir.Module]
	cellReports   sync.Map // reportKey → *memo[*fault.Report]
)

type reportKey struct {
	cell
	row string
}

// report returns c's Report under knob row r, whose sparse ladder, if any,
// is spaced over a golden run of goldenDyn instructions. Row names are
// unique, so they key the memo.
func (c cell) report(t *testing.T, r row, goldenDyn int64) *fault.Report {
	t.Helper()
	w := workloads.ByName(c.workload)
	prot := protectedFor(t, w, c.scheme)
	rep, err := memoised(&cellReports, reportKey{c, r.name}, func() (*fault.Report, error) {
		cfg := fault.DefaultConfig()
		cfg.Trials, cfg.Workers, cfg.Model = c.trials, c.workers, c.model
		cfg.Engine, cfg.Checkpoints, cfg.Fuse, cfg.Converge = r.engine, r.checkpoints, r.fuse, r.converge
		var probe *fault.LadderProbe
		if r.rungs > 0 {
			probe = sparseLadder(goldenDyn, r.rungs)
		}
		return fault.Run(ladderCtx(probe), w.Target(workloads.Test), prot, c.scheme, cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// protectedFor returns workload w compiled and protected under mode
// (profiling on the training input when the mode needs it), built once per
// test binary. fault.Run never mutates its module, so tests share it.
func protectedFor(t *testing.T, w *workloads.Workload, mode string) *ir.Module {
	t.Helper()
	mod, err := memoised(&protectedMods, [2]string{w.Name, mode}, func() (*ir.Module, error) {
		return protect(w, mode)
	})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func protect(w *workloads.Workload, mode string) (*ir.Module, error) {
	mod, err := w.Compile()
	if err != nil {
		return nil, err
	}
	var prof *profile.Data
	if sch, err := core.ParseScheme(mode); err == nil && sch.NeedsProfile() {
		mach, err := vm.New(mod.Clone(), vm.DefaultConfig())
		if err != nil {
			return nil, err
		}
		if err := w.Bind(mach, workloads.Train); err != nil {
			return nil, err
		}
		mach.Reset()
		col := profile.NewCollector(profile.DefaultBins)
		if res := mach.Run(vm.RunOptions{Profiler: col}); res.Trap != nil {
			return nil, fmt.Errorf("profiling %s trapped: %v", w.Name, res.Trap)
		}
		prof = col.Data()
	}
	prot := mod.Clone() // Compile's module is the workload's cached one
	if _, err := core.Protect(prot, mode, prof, core.DefaultParams()); err != nil {
		return nil, err
	}
	return prot, nil
}

// grid is the acceptance matrix: every workload × every scheme, reg-flip,
// 12 trials. Under the race detector, which is after unsynchronised
// snapshot sharing rather than breadth, it trims to four workloads ×
// {original, raceScheme}.
func grid(raceScheme string, ref row, rows ...row) []check {
	schemes := core.SchemeNames()
	var names []string
	for _, w := range workloads.All() {
		names = append(names, w.Name)
	}
	if raceEnabled {
		names = []string{"tiff2bw", "g721dec", "svm", "kmeans"}
		schemes = []string{core.SchemeOriginal, raceScheme}
	}
	var checks []check
	for _, name := range names {
		for _, sch := range schemes {
			checks = append(checks, check{name + "/" + sch, cell{name, sch, fault.ModelRegFlip, 12, 0}, ref, rows})
		}
	}
	return checks
}

// branchCells covers the branch-target model, whose hook is due one dyn
// index before its trigger — including trigger 0, whose trial starts at
// the origin by Reset.
func branchCells(ref row, rows ...row) []check {
	return []check{
		{"kmeans", cell{"kmeans", core.SchemeDup, fault.ModelBranchTarget, 20, 0}, ref, rows},
		{"g721enc", cell{"g721enc", core.SchemeDup, fault.ModelBranchTarget, 30, 0}, ref, rows},
	}
}

// TestCampaignCheckpointEquivalence: the default ladder and a sparse one
// against Reset per trial, over the grid.
func TestCampaignCheckpointEquivalence(t *testing.T) {
	wall(t, grid(core.SchemeDupVal, rowReset, rowDefault, rowSparse))
}

// TestCampaignCheckpointEquivalenceBranch: the same rows under branch-target
// faults.
func TestCampaignCheckpointEquivalenceBranch(t *testing.T) {
	wall(t, branchCells(rowReset, rowDefault, rowSparse))
}

// TestCampaignLockstepEquivalence: trial positioning alone — the golden
// cursor over a sparse ladder, convergence off — against Reset per trial.
// (The name is the one the cursor's suite had when it was the lockstep
// carrier.)
func TestCampaignLockstepEquivalence(t *testing.T) {
	wall(t, grid(core.SchemeDupVal, rowReset, rowCursor))
}

// TestCampaignLockstepEquivalenceBranch: the cursor alone under
// branch-target faults.
func TestCampaignLockstepEquivalenceBranch(t *testing.T) {
	wall(t, branchCells(rowReset, rowCursor))
}

// TestCampaignLockstepEquivalenceDense packs 90 trials into few bins on one
// worker, so a cursor serves long chains of trials, equal-trigger
// duplicates (which re-clone without advancing) included.
func TestCampaignLockstepEquivalenceDense(t *testing.T) {
	wall(t, []check{{"g721dec/dup", cell{"g721dec", core.SchemeDup, fault.ModelRegFlip, 90, 1}, rowReset, []row{rowDense}}})
}

// TestCampaignFusionEquivalence: fused against unfused over the grid, on
// the default golden-cursor path.
func TestCampaignFusionEquivalence(t *testing.T) {
	wall(t, grid(core.SchemeFullDup, rowDefault, rowUnfused))
}

// TestCampaignFusionEquivalencePaths: fusion off on the remaining paths —
// Reset per trial, a masked-heavy cursor campaign, branch-target faults.
func TestCampaignFusionEquivalencePaths(t *testing.T) {
	wall(t, []check{
		{"scratch", cell{"kmeans", core.SchemeDup, fault.ModelRegFlip, 30, 0}, rowReset, []row{rowResetUnfused}},
		{"cursor", cell{"g721dec", core.SchemeFullDup, fault.ModelRegFlip, 40, 0}, rowDefault, []row{rowUnfused}},
		{"branch", cell{"g721enc", core.SchemeDup, fault.ModelBranchTarget, 30, 0}, rowDefault, []row{rowUnfused}},
	})
}

// TestCampaignConvergenceEquivalence: convergence on against off — a
// masked trial may end early only where its state provably re-joined the
// golden run. FullDup is the masked-heavy scheme the fast-forward targets;
// Original covers the no-detection shape, the branch model the
// shifted-trigger scheduler, and the memory models the live-memory
// compare, re-arming plans included.
func TestCampaignConvergenceEquivalence(t *testing.T) {
	cells := []cell{
		{"tiff2bw", core.SchemeFullDup, fault.ModelRegFlip, 40, 0},
		{"kmeans", core.SchemeFullDup, fault.ModelRegFlip, 40, 0},
		{"svm", core.SchemeOriginal, fault.ModelRegFlip, 40, 0},
		{"g721dec", core.SchemeDup, fault.ModelRegFlip, 40, 0},
		{"kmeans", core.SchemeFullDup, fault.ModelBranchTarget, 40, 0},
		{"kmeans", core.SchemeFullDup, fault.ModelMemFlip, 40, 0},
		{"g721dec", core.SchemeDup, fault.ModelBurst, 40, 0},
		{"kmeans", core.SchemeABFT, fault.ModelStuckAt, 40, 0},
		{"jpegenc", core.SchemeDupVal, fault.ModelIntermittent, 40, 0},
	}
	if raceEnabled {
		cells = cells[:2]
	}
	var checks []check
	for _, c := range cells {
		name := c.workload + "/" + c.scheme
		if c.model != fault.ModelRegFlip {
			name += "/" + c.model
		}
		checks = append(checks, check{name, c, rowConvergeOff, []row{rowDefault}})
	}
	wall(t, checks)
}

// TestCampaignEngineEquivalence: the precompiled engine against the tree
// interpreter under every registered fault model: both fire every model
// from the same per-instruction event point, and the trial RNG streams
// depend only on the seed. reg-flip and branch-target keep the trial
// counts they had before the suspend-injected models could run on the
// tree engine; only those newer models trim under the race detector.
func TestCampaignEngineEquivalence(t *testing.T) {
	var checks []check
	for _, model := range fault.ModelNames() {
		trials := 60
		switch {
		case model == fault.ModelRegFlip:
			trials = 80
		case model != fault.ModelBranchTarget && raceEnabled:
			trials = 16
		}
		checks = append(checks, check{model, cell{"kmeans", core.SchemeOriginal, model, trials, 0}, rowTree, []row{rowDefault}})
	}
	wall(t, checks)
}
