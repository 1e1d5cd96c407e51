package vm_test

import (
	"math"
	"math/rand"
	"testing"

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
