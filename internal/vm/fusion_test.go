package vm_test

// Fusion equivalence grid: every built-in workload under every registered
// protection scheme must produce bit-identical observables with fused
// dispatch on and off — Result fields, opcode accounting, check counters and
// output memory. Traced runs take the per-instruction path by construction
// (FuseAuto disables fusion under a tracer), so the grid also pins the
// traced run's results to the fused run's: the trace surface cannot drift
// from what fused execution computes.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// fusionRun executes mod on the fast engine without a tracer and reports
// the machine's fusion counters next to the usual observables.
func fusionRun(t *testing.T, w *workloads.Workload, mod *ir.Module, opts vm.RunOptions) (*engineRun, int, int64) {
	t.Helper()
	mach, err := vm.New(mod, vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bind(mach, workloads.Test); err != nil {
		t.Fatal(err)
	}
	mach.Reset()
	res := mach.Run(opts)
	out, err := mach.ReadGlobal(w.Output)
	if err != nil {
		t.Fatal(err)
	}
	return &engineRun{res: res, out: out, fault: vm.RecordOf(opts)}, mach.FusedSites(), mach.FusedSteps()
}

// TestFusionEquivalence is the acceptance grid: all workloads × all
// registered schemes, fused vs unfused, in CountChecks mode so protected
// binaries exercise their check counters. Under the race detector the
// matrix trims to representative cells, mirroring the campaign suites.
func TestFusionEquivalence(t *testing.T) {
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
				prot := protectedModule(t, w, mode)
				opts := vm.RunOptions{CountChecks: true}

				fused, sites, fsteps := fusionRun(t, w, prot, opts)
				unfused, _, usteps := fusionRun(t, w, prot, vm.RunOptions{CountChecks: true, Fuse: vm.FuseOff})
				diffRuns(t, name+"/"+mode, fused, unfused)
				if sites == 0 {
					t.Error("no fused sites: the grid cell is vacuous")
				}
				if fsteps == 0 {
					t.Error("fused run executed no fused handlers")
				}
				if usteps != 0 {
					t.Errorf("FuseOff run executed %d fused handlers", usteps)
				}

				// The traced run unfuses automatically; its results must
				// still match the fused run exactly (the trace fields are
				// its own surface, compared against the tree engine in the
				// engine equivalence suite).
				traced := runEngine(t, w, prot, vm.EngineFast, workloads.Test, opts)
				traced.traceN, traced.traceH = 0, 0
				diffRuns(t, name+"/"+mode+"/traced", fused, traced)
			})
		}
	}
}

// TestFusionEquivalenceProfiled pins the profiled path the same way: a
// profiler forces per-instruction dispatch, and the collected profile must
// match a FuseOff run's bit for bit (dupval's expected-value thresholds are
// derived from it).
func TestFusionEquivalenceProfiled(t *testing.T) {
	w := workloads.ByName("jpegdec")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	fused, _, steps := fusionRun(t, w, mod, vm.RunOptions{})
	unfused, _, _ := fusionRun(t, w, mod, vm.RunOptions{Fuse: vm.FuseOff})
	diffRuns(t, "jpegdec", fused, unfused)
	if steps == 0 {
		t.Fatal("fused run executed no fused handlers")
	}
	prof := protectedModule(t, w, core.SchemeDupVal) // profiles on Train internally
	fusedP, _, _ := fusionRun(t, w, prof, vm.RunOptions{CountChecks: true})
	unfusedP, _, _ := fusionRun(t, w, prof, vm.RunOptions{CountChecks: true, Fuse: vm.FuseOff})
	diffRuns(t, "jpegdec/dupval", fusedP, unfusedP)
}

// TestFusedStepsAtSuspension pins FusedSteps' flush rule: a suspension
// flushes the fused-handler tally whichever dispatch path it lands on, so
// the count at a suspension point is every fused handler run before it.
// Raising the suspension point only lengthens the prefix and lets more
// spans clear the event gate, so the count cannot drop as it rises.
func TestFusedStepsAtSuspension(t *testing.T) {
	w := workloads.ByName("g721dec")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	mach, err := vm.New(mod, vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bind(mach, workloads.Test); err != nil {
		t.Fatal(err)
	}
	prev := int64(0)
	for d := int64(1000); d < 3000; d++ {
		mach.Reset()
		res := mach.Run(vm.RunOptions{SuspendAtDyn: d})
		if res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
			t.Fatalf("suspend at %d: run ended with %v", d, res.Trap)
		}
		steps := mach.FusedSteps()
		if steps < prev {
			t.Fatalf("suspend at %d: FusedSteps() = %d, below %d at the previous point", d, steps, prev)
		}
		prev = steps
	}
	if prev == 0 {
		t.Fatal("no fused handler ran before any suspension point; the sweep is vacuous")
	}
}
