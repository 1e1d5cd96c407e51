package vm_test

// Engine equivalence suite: the precompiled engine (EngineFast) promises
// bit-for-bit observational equivalence with the reference tree-walking
// interpreter (EngineTree). These tests check the promise on every built-in
// benchmark — outputs, dynamic counts, timing cycles, opcode counts, check
// behavior, full trace streams — and across register and branch-target fault
// sweeps including the injection-attribution metadata the campaign relies
// on. The difftest oracle's engine-diff invariant covers the same promise
// over randomly generated programs.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// hashTracer folds every trace event into an FNV-1a accumulator so complete
// trace streams can be compared without storing them.
type hashTracer struct {
	n uint64
	h uint64
}

func newHashTracer() *hashTracer { return &hashTracer{h: 14695981039346656037} }

func (t *hashTracer) mix(v uint64) {
	for i := 0; i < 8; i++ {
		t.h ^= v & 0xff
		t.h *= 1099511628211
		v >>= 8
	}
}

func (t *hashTracer) Trace(dyn int64, fn string, in *ir.Instr, bits uint64) {
	t.n++
	t.mix(uint64(dyn))
	for i := 0; i < len(fn); i++ {
		t.h ^= uint64(fn[i])
		t.h *= 1099511628211
	}
	t.mix(uint64(in.UID))
	t.mix(bits)
}

// engineRun is everything observable about one run.
type engineRun struct {
	res    *vm.Result
	out    []uint64
	fault  vm.FaultRecord
	traceN uint64
	traceH uint64
}

// runEngine executes mod on the given engine with the workload's inputs
// bound, tracing every instruction.
func runEngine(t *testing.T, w *workloads.Workload, mod *ir.Module, engine vm.EngineKind, kind workloads.InputKind, opts vm.RunOptions) *engineRun {
	t.Helper()
	cfg := vm.DefaultConfig()
	cfg.Engine = engine
	mach, err := vm.New(mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bind(mach, kind); err != nil {
		t.Fatal(err)
	}
	mach.Reset()
	tr := newHashTracer()
	opts.Tracer = tr
	res := mach.Run(opts)
	out, err := mach.ReadGlobal(w.Output)
	if err != nil {
		t.Fatal(err)
	}
	return &engineRun{res: res, out: out, fault: vm.RecordOf(opts), traceN: tr.n, traceH: tr.h}
}

// diffRuns fails the test if any observable differs between the fast- and
// tree-engine runs.
func diffRuns(t *testing.T, label string, fast, tree *engineRun) {
	t.Helper()
	f, r := fast.res, tree.res
	if (f.Trap == nil) != (r.Trap == nil) {
		t.Fatalf("%s: trap mismatch: fast=%v tree=%v", label, f.Trap, r.Trap)
	}
	if f.Trap != nil && *f.Trap != *r.Trap {
		t.Fatalf("%s: traps differ: fast=%+v tree=%+v", label, *f.Trap, *r.Trap)
	}
	if f.Ret != r.Ret {
		t.Fatalf("%s: Ret: fast=%#x tree=%#x", label, f.Ret, r.Ret)
	}
	if f.Dyn != r.Dyn {
		t.Fatalf("%s: Dyn: fast=%d tree=%d", label, f.Dyn, r.Dyn)
	}
	if f.Cycles != r.Cycles {
		t.Fatalf("%s: Cycles: fast=%d tree=%d", label, f.Cycles, r.Cycles)
	}
	if f.CheckFails != r.CheckFails {
		t.Fatalf("%s: CheckFails: fast=%d tree=%d", label, f.CheckFails, r.CheckFails)
	}
	if len(f.PerCheckFails) != len(r.PerCheckFails) {
		t.Fatalf("%s: PerCheckFails size: fast=%d tree=%d", label, len(f.PerCheckFails), len(r.PerCheckFails))
	}
	for id, n := range f.PerCheckFails {
		if r.PerCheckFails[id] != n {
			t.Fatalf("%s: PerCheckFails[%d]: fast=%d tree=%d", label, id, n, r.PerCheckFails[id])
		}
	}
	if len(fast.out) != len(tree.out) {
		t.Fatalf("%s: output length: fast=%d tree=%d", label, len(fast.out), len(tree.out))
	}
	for i := range fast.out {
		if fast.out[i] != tree.out[i] {
			t.Fatalf("%s: out[%d]: fast=%#x tree=%#x", label, i, fast.out[i], tree.out[i])
		}
	}
	if fast.traceN != tree.traceN || fast.traceH != tree.traceH {
		t.Fatalf("%s: trace streams differ: fast=(%d,%#x) tree=(%d,%#x)",
			label, fast.traceN, fast.traceH, tree.traceN, tree.traceH)
	}
	if fast.fault != tree.fault {
		t.Fatalf("%s: fault attribution differs:\nfast=%+v\ntree=%+v", label, fast.fault, tree.fault)
	}
}

// TestEngineEquivalenceWorkloads runs every built-in benchmark fault-free on
// both engines and requires identical observables including the complete
// trace stream.
func TestEngineEquivalenceWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			mod, err := w.Compile()
			if err != nil {
				t.Fatal(err)
			}
			fast := runEngine(t, w, mod, vm.EngineFast, workloads.Test, vm.RunOptions{})
			tree := runEngine(t, w, mod, vm.EngineTree, workloads.Test, vm.RunOptions{})
			if fast.res.Trap != nil {
				t.Fatalf("fault-free run trapped: %v", fast.res.Trap)
			}
			diffRuns(t, w.Name, fast, tree)
		})
	}
}

// protectedModule profiles w on the training input and applies mode.
func protectedModule(t *testing.T, w *workloads.Workload, mode string) *ir.Module {
	t.Helper()
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
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
	prot := mod.Clone()
	if _, err := core.Protect(prot, mode, prof, core.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	return prot
}

// TestEngineEquivalenceProtected checks the engines agree on protected
// binaries, where duplication comparisons and expected-value checks execute
// and (in CountChecks mode) check-failure counters accumulate.
func TestEngineEquivalenceProtected(t *testing.T) {
	for _, tc := range []struct {
		workload string
		mode     string
	}{
		{"kmeans", core.SchemeDup},
		{"jpegdec", core.SchemeDupVal},
		{"svm", core.SchemeDupVal},
		{"g721dec", core.SchemeFullDup},
	} {
		tc := tc
		t.Run(tc.workload+"/"+tc.mode, func(t *testing.T) {
			t.Parallel()
			w := workloads.ByName(tc.workload)
			prot := protectedModule(t, w, tc.mode)
			opts := vm.RunOptions{CountChecks: true}
			fast := runEngine(t, w, prot, vm.EngineFast, workloads.Test, opts)
			tree := runEngine(t, w, prot, vm.EngineTree, workloads.Test, opts)
			diffRuns(t, tc.workload, fast, tree)
		})
	}
}

// faultSweep injects one fault per seed on both engines — a register flip
// through the fault hook, or a branch redirect — and requires identical
// outcomes, including what the fault hit.
func faultSweep(t *testing.T, w *workloads.Workload, mod *ir.Module, branch bool, seeds int) {
	t.Helper()
	golden := runEngine(t, w, mod, vm.EngineFast, workloads.Test, vm.RunOptions{})
	if golden.res.Trap != nil {
		t.Fatalf("golden run trapped: %v", golden.res.Trap)
	}
	opts := func(seed int64) vm.RunOptions {
		rng := rand.New(rand.NewSource(seed))
		return vm.InjectAt(branch, rng.Int63n(golden.res.Dyn), rng)
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		fast := runEngine(t, w, mod, vm.EngineFast, workloads.Test, opts(seed))
		tree := runEngine(t, w, mod, vm.EngineTree, workloads.Test, opts(seed))
		diffRuns(t, w.Name, fast, tree)
	}
}

func TestEngineEquivalenceRegisterFaults(t *testing.T) {
	w := workloads.ByName("kmeans")
	prot := protectedModule(t, w, core.SchemeDup)
	faultSweep(t, w, prot, false, 40)
}

func TestEngineEquivalenceBranchFaults(t *testing.T) {
	w := workloads.ByName("kmeans")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	faultSweep(t, w, mod, true, 25)
}

// TestEngineCancellation checks both engines honor a closed Stop channel —
// the hook behind context cancellation — with the cancellation trap rather
// than a partial result.
func TestEngineCancellation(t *testing.T) {
	w := workloads.ByName("jpegdec")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	for _, engine := range []vm.EngineKind{vm.EngineFast, vm.EngineTree} {
		cfg := vm.DefaultConfig()
		cfg.Engine = engine
		mach, err := vm.New(mod, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Bind(mach, workloads.Test); err != nil {
			t.Fatal(err)
		}
		mach.Reset()
		res := mach.Run(vm.RunOptions{Stop: stop})
		if res.Trap == nil || res.Trap.Kind != vm.TrapCancelled {
			t.Fatalf("engine %d: expected cancellation trap, got %v", engine, res.Trap)
		}
		if res.Trap.IsSymptom() {
			t.Fatal("cancellation must not classify as a hardware symptom")
		}
	}
}

// TestEngineDeadline checks the wall-clock bound a campaign trial timeout
// puts on a run: a Stop closed by a timer. On both engines an expired timer
// gives the non-symptom cancellation trap, and a timer that never fires
// leaves the run bit-identical to one with no Stop at all.
func TestEngineDeadline(t *testing.T) {
	w := workloads.ByName("jpegdec")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	deadline := func(d time.Duration) (chan struct{}, *time.Timer) {
		stop := make(chan struct{})
		return stop, time.AfterFunc(d, func() { close(stop) })
	}
	for _, engine := range []vm.EngineKind{vm.EngineFast, vm.EngineTree} {
		cfg := vm.DefaultConfig()
		cfg.Engine = engine
		mach, err := vm.New(mod, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Bind(mach, workloads.Test); err != nil {
			t.Fatal(err)
		}
		mach.Reset()
		ref := mach.Run(vm.RunOptions{})
		if ref.Trap != nil {
			t.Fatalf("engine %d: reference run trapped: %v", engine, ref.Trap)
		}

		expired, _ := deadline(0)
		<-expired
		mach.Reset()
		res := mach.Run(vm.RunOptions{Stop: expired})
		if res.Trap == nil || res.Trap.Kind != vm.TrapCancelled {
			t.Fatalf("engine %d: expected cancellation trap, got %v", engine, res.Trap)
		}
		if res.Trap.IsSymptom() {
			t.Fatal("an expired deadline must not classify as a hardware symptom")
		}

		// The poll touches no machine state, so a deadline that never
		// fires changes nothing.
		far, timer := deadline(time.Hour)
		mach.Reset()
		open := mach.Run(vm.RunOptions{Stop: far})
		timer.Stop()
		if open.Trap != nil {
			t.Fatalf("engine %d: far-deadline run trapped: %v", engine, open.Trap)
		}
		if open.Ret != ref.Ret || open.Dyn != ref.Dyn || open.Cycles != ref.Cycles {
			t.Fatalf("engine %d: far-deadline run differs: (%d,%d,%d) != (%d,%d,%d)",
				engine, open.Ret, open.Dyn, open.Cycles, ref.Ret, ref.Dyn, ref.Cycles)
		}
	}
}

// BenchmarkEngine compares raw single-run throughput of the two engines on
// the heaviest kernel; instrs/s is reported so benchstat shows the ratio.
func BenchmarkEngine(b *testing.B) {
	w := workloads.ByName("jpegdec")
	mod, err := w.Compile()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		engine vm.EngineKind
	}{{"fast", vm.EngineFast}, {"tree", vm.EngineTree}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := vm.DefaultConfig()
			cfg.Engine = bc.engine
			mach, err := vm.New(mod.Clone(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := w.Bind(mach, workloads.Test); err != nil {
				b.Fatal(err)
			}
			var dyn int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mach.Reset()
				res := mach.Run(vm.RunOptions{})
				if res.Trap != nil {
					b.Fatal(res.Trap)
				}
				dyn += res.Dyn
			}
			b.ReportMetric(float64(dyn)/b.Elapsed().Seconds(), "instrs/s")
		})
	}
}
