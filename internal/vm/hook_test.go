package vm_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// memFlip is a fault hook that flips one bit of one word of the used
// memory image, drawn from r, at the first fault-eligible instruction at or
// past at.
type memFlip struct {
	at   int64
	r    *rand.Rand
	done bool
}

func (h *memFlip) Next() int64 {
	if h.done {
		return math.MaxInt64
	}
	return h.at
}

func (h *memFlip) Fire(m *vm.Machine) {
	used := m.MemUsed()
	if used <= 1 {
		return
	}
	addr := 1 + uint64(h.r.Int63n(int64(used-1)))
	m.SetMemWord(addr, m.MemWord(addr)^1<<uint(h.r.Intn(64)))
	h.done = true
}

// TestHookMatchesParkedInjection pins the equivalence the fault campaign's
// single injection mechanism rests on: a fault hook fired in-engine, on
// either engine, gives the same Result, output and trace stream as parking
// the fast engine at the hook's point with SuspendAtDyn, applying the same
// mutation through the accessors, and resuming — for a register flip and
// for a memory flip. The parked side fires the very hook value the
// in-engine runs use, so the two sides share one mutation.
func TestHookMatchesParkedInjection(t *testing.T) {
	w := workloads.ByName("tiff2bw")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	golden := runEngine(t, w, mod, vm.EngineFast, workloads.Test, vm.RunOptions{})
	seeds := int64(20)
	if raceEnabled {
		seeds = 6
	}
	for _, mc := range []struct {
		name    string
		newHook func(at int64, r *rand.Rand) vm.FaultHook
	}{
		{"register", func(at int64, r *rand.Rand) vm.FaultHook {
			return &vm.RegFlip{At: at, Slot: r.Intn, Bit: func() int { return r.Intn(64) }}
		}},
		{"memory", func(at int64, r *rand.Rand) vm.FaultHook { return &memFlip{at: at, r: r} }},
	} {
		for seed := int64(0); seed < seeds; seed++ {
			trigger := 1 + rand.New(rand.NewSource(seed)).Int63n(golden.res.Dyn-1)
			hooked := func(engine vm.EngineKind) *engineRun {
				h := mc.newHook(trigger, rand.New(rand.NewSource(seed)))
				run := runEngine(t, w, mod, engine, workloads.Test, vm.RunOptions{Hook: h})
				if h.Next() != math.MaxInt64 {
					t.Fatalf("%s seed %d: the hook never fired", mc.name, seed)
				}
				return run
			}
			fast, tree := hooked(vm.EngineFast), hooked(vm.EngineTree)

			mach, err := vm.New(mod, vm.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Bind(mach, workloads.Test); err != nil {
				t.Fatal(err)
			}
			mach.Reset()
			// Park at the hook's point and fire the same hook through the
			// accessors of the suspended machine, retrying one instruction
			// later while it finds nothing eligible.
			tr := newHashTracer()
			h := mc.newHook(trigger, rand.New(rand.NewSource(seed)))
			for at := trigger; h.Next() != math.MaxInt64; at = mach.Dyn() + 1 {
				if res := mach.Run(vm.RunOptions{Tracer: tr, SuspendAtDyn: at}); res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
					t.Fatalf("%s seed %d: no suspension at dyn %d: %v", mc.name, seed, at, res.Trap)
				}
				h.Fire(mach)
			}
			res := mach.Run(vm.RunOptions{Tracer: tr})
			out, err := mach.ReadGlobal(w.Output)
			if err != nil {
				t.Fatal(err)
			}
			parked := &engineRun{res: res, out: out, fault: vm.RecordOf(vm.RunOptions{Hook: h}), traceN: tr.n, traceH: tr.h}
			diffRuns(t, mc.name+"/fast-vs-parked", fast, parked)
			diffRuns(t, mc.name+"/tree-vs-parked", tree, parked)
		}
	}
}

// opTracer records the opcode of each instruction traced at a dyn in
// [from, from+len(ops)).
type opTracer struct {
	from int64
	ops  [256]ir.Op
}

func (t *opTracer) Trace(dyn int64, _ string, in *ir.Instr, _ uint64) {
	if i := dyn - t.from; i >= 0 && i < int64(len(t.ops)) {
		t.ops[i] = in.Op
	}
}

// isBranch reports whether the instruction traced at dyn was a br or jmp.
func (t *opTracer) isBranch(dyn int64) bool {
	op := t.ops[dyn-t.from]
	return op == ir.OpBr || op == ir.OpJmp
}

// branchProbe is a fault hook due at every fault-eligible instruction from
// at on: each firing asks RedirectBranch to send the branch to block 0 and
// records the answer and whether pick ran, until the first redirect, which
// closes stop.
type branchProbe struct {
	at    int64
	fires []probeFire
	done  bool
	stop  chan struct{}
}

type probeFire struct {
	dyn                int64
	redirected, picked bool
}

func (h *branchProbe) Next() int64 {
	if h.done {
		return math.MaxInt64
	}
	return h.at
}

func (h *branchProbe) Fire(m *vm.Machine) {
	f := probeFire{dyn: m.Dyn()}
	f.redirected = m.RedirectBranch(func(int) int { f.picked = true; return 0 })
	h.fires = append(h.fires, f)
	h.at, h.done = m.Dyn()+1, f.redirected
	if h.done && h.stop != nil {
		close(h.stop)
	}
}

// newMachine builds a machine over mod on engine with the workload's test
// inputs bound and a dynamic-instruction budget of maxDyn.
func newMachine(t *testing.T, w *workloads.Workload, mod *ir.Module, engine vm.EngineKind, maxDyn int64) *vm.Machine {
	t.Helper()
	cfg := vm.DefaultConfig()
	cfg.Engine = engine
	cfg.MaxDyn = maxDyn
	mach, err := vm.New(mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bind(mach, workloads.Test); err != nil {
		t.Fatal(err)
	}
	return mach
}

// TestRedirectBranchOnlyAtBranch pins RedirectBranch's contract on both
// engines: from a hook firing at a br or jmp it draws the block and
// returns true; at any other instruction, and outside a hook, it returns
// false without calling pick.
func TestRedirectBranchOnlyAtBranch(t *testing.T) {
	w := workloads.ByName("tiff2bw")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	golden := runEngine(t, w, mod, vm.EngineFast, workloads.Test, vm.RunOptions{})
	for _, engine := range []vm.EngineKind{vm.EngineFast, vm.EngineTree} {
		mach := newMachine(t, w, mod, engine, 2*golden.res.Dyn)
		misses := 0
		for seed := int64(0); seed < 20; seed++ {
			mach.Reset()
			if mach.RedirectBranch(func(int) int { t.Fatal("pick called outside a hook"); return 0 }) {
				t.Fatal("RedirectBranch outside a hook returned true")
			}
			at := rand.New(rand.NewSource(seed)).Int63n(golden.res.Dyn)
			h := &branchProbe{at: at, stop: make(chan struct{})}
			ops := &opTracer{from: at + 1} // the hook's instructions, traced post-increment
			mach.Run(vm.RunOptions{Hook: h, Tracer: ops, Stop: h.stop})
			if !h.done {
				t.Fatalf("engine %d seed %d: no branch redirected", engine, seed)
			}
			for _, f := range h.fires {
				branch := ops.isBranch(f.dyn + 1)
				if f.redirected != branch || f.picked != branch {
					t.Fatalf("engine %d seed %d: fire at dyn %d (branch=%v): redirected=%v picked=%v", engine, seed, f.dyn, branch, f.redirected, f.picked)
				}
				if !branch {
					misses++
				}
			}
		}
		if misses == 0 {
			t.Fatalf("engine %d: no hook fired at a non-branch", engine)
		}
	}
}

// TestRedirectDoesNotLeakPastTrap pins that a redirect a hook requested at
// a branch the watchdog then stopped short of dies with that run: after
// Reset, the machine's next Run equals a fresh machine's, on both engines.
func TestRedirectDoesNotLeakPastTrap(t *testing.T) {
	w := workloads.ByName("tiff2bw")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	golden := runEngine(t, w, mod, vm.EngineFast, workloads.Test, vm.RunOptions{})
	// The first branch past the middle of the run: its pre-increment dyn
	// is the budget, so the watchdog trips right after the hook fires.
	ops := &opTracer{from: golden.res.Dyn/2 + 1}
	mach := newMachine(t, w, mod, vm.EngineFast, golden.res.Dyn)
	mach.Reset()
	mach.Run(vm.RunOptions{Tracer: ops})
	at := golden.res.Dyn / 2
	for !ops.isBranch(at + 1) {
		at++
	}
	run := func(mach *vm.Machine) *engineRun {
		mach.Reset()
		tr := newHashTracer()
		res := mach.Run(vm.RunOptions{Tracer: tr})
		out, err := mach.ReadGlobal(w.Output)
		if err != nil {
			t.Fatal(err)
		}
		return &engineRun{res: res, out: out, traceN: tr.n, traceH: tr.h}
	}
	for _, engine := range []vm.EngineKind{vm.EngineFast, vm.EngineTree} {
		mach := newMachine(t, w, mod, engine, at)
		h := &branchProbe{at: at}
		mach.Reset()
		res := mach.Run(vm.RunOptions{Hook: h})
		if !h.done || len(h.fires) != 1 {
			t.Fatalf("engine %d: hook at dyn %d fired %d times, redirected=%v", engine, at, len(h.fires), h.done)
		}
		if res.Trap == nil || res.Trap.Kind != vm.TrapWatchdog {
			t.Fatalf("engine %d: want a watchdog trap after the hook, got %v", engine, res.Trap)
		}
		diffRuns(t, "after-trap", run(mach), run(newMachine(t, w, mod, engine, at)))
	}
}
