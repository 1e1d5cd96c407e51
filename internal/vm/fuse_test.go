package vm

// White-box fusion tests: the side-band annotation layout, the invariants
// fuseFunc promises (annotated pairs round-trip the pattern table and never
// leave one block body), and bit-identical fallback when suspensions or fault
// triggers land inside a fused span.

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/ir"
)

// TestLinstSize pins the instruction word at 32 bytes: the fop/fspan
// annotation must live in what used to be padding, not grow the stream.
func TestLinstSize(t *testing.T) {
	if s := unsafe.Sizeof(linst{}); s != 32 {
		t.Fatalf("linst size = %d bytes, want 32 (fop/fspan must fit the padding)", s)
	}
}

// fuseTestModules lowers a few representative modules covering arithmetic,
// memory, control and check patterns.
func fuseTestModules(t *testing.T) map[string]*Machine {
	t.Helper()
	mods := map[string]*ir.Module{
		"loop":  loopModule(t, 16),
		"binop": binOpModule(t, ir.OpAdd, ir.I64),
		"chk":   checkModule(t),
	}
	machines := make(map[string]*Machine, len(mods))
	for name, mod := range mods {
		mach, err := New(mod, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		machines[name] = mach
	}
	return machines
}

// TestFuseAnnotations recomputes the expected annotation for every pc of the
// lowered stream and requires fuseFunc's output to match exactly: every
// adjacent pair inside one block body (derived from bodyPC and the block's
// non-phi instruction count, so the trailing lopFellOff and every phi-edge
// segment are excluded) that the table matches is annotated, every annotation
// round-trips fuseOf (or is a jmp→lopPhiOne pair with fspan 1), and nothing
// else carries a mark.
func TestFuseAnnotations(t *testing.T) {
	for name, mach := range fuseTestModules(t) {
		sites := 0
		for _, ef := range mach.eng.funcs {
			code := ef.code
			bodyEnd := make([]int, len(code)) // pc -> end of its block body, 0 outside bodies
			for _, b := range ef.fn.Blocks {
				start := int(ef.bodyPC[b.Index])
				end := start + len(b.Instrs) - len(b.Phis())
				for pc := start; pc < end; pc++ {
					bodyEnd[pc] = end
				}
			}
			for pc := range code {
				li := &code[pc]
				wantOp, wantSpan := fNone, uint8(0)
				if pc+1 < bodyEnd[pc] {
					wantOp, wantSpan = fuseOf(li, &code[pc+1])
				}
				if wantOp == fNone && li.op == lopJmp && code[li.then].op == lopPhiOne {
					wantOp, wantSpan = fJmpPhi, 1
				}
				if li.fop != wantOp || li.fspan != wantSpan {
					t.Errorf("%s/%s pc %d: annotation %d/%d, want %d/%d",
						name, ef.fn.Name, pc, li.fop, li.fspan, wantOp, wantSpan)
				}
				if li.fop != fNone {
					sites++
				}
			}
		}
		// checkModule is all range checks — nothing there pairs, by design.
		if sites == 0 && name != "chk" {
			t.Errorf("%s: no fused sites in the lowered module", name)
		}
		if got := mach.FusedSites(); got != sites {
			t.Errorf("%s: FusedSites() = %d, recount = %d", name, got, sites)
		}
	}
}

// fusedVsUnfused runs the same bound machine twice from Reset and compares
// every architectural observable.
func fusedVsUnfused(t *testing.T, label string, mach *Machine, outName string) {
	t.Helper()
	run := func(mode FuseMode) (*Result, []uint64, int64) {
		mach.Reset()
		res := mach.Run(RunOptions{Fuse: mode})
		var out []uint64
		if outName != "" {
			var err error
			out, err = mach.ReadGlobal(outName)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		return res, out, mach.FusedSteps()
	}
	fr, fout, fsteps := run(FuseAuto)
	ur, uout, usteps := run(FuseOff)
	if fsteps == 0 {
		t.Errorf("%s: fused run executed no fused handlers", label)
	}
	if usteps != 0 {
		t.Errorf("%s: FuseOff run executed %d fused handlers", label, usteps)
	}
	if fr.Dyn != ur.Dyn || fr.Cycles != ur.Cycles {
		t.Errorf("%s: fused dyn/cycles %d/%d, unfused %d/%d", label, fr.Dyn, fr.Cycles, ur.Dyn, ur.Cycles)
	}
	if (fr.Trap == nil) != (ur.Trap == nil) {
		t.Fatalf("%s: trap mismatch: fused %v, unfused %v", label, fr.Trap, ur.Trap)
	}
	if fr.Trap != nil && (fr.Trap.Kind != ur.Trap.Kind || fr.Trap.Dyn != ur.Trap.Dyn) {
		t.Errorf("%s: traps differ: fused %v, unfused %v", label, fr.Trap, ur.Trap)
	}
	for i := range fout {
		if fout[i] != uout[i] {
			t.Fatalf("%s: output[%d] = %#x fused, %#x unfused", label, i, fout[i], uout[i])
		}
	}
}

func TestFusedDispatchBitIdentical(t *testing.T) {
	m := loopModule(t, 64)
	mach, err := New(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, 64)
	for i := range data {
		data[i] = int64(i*7 - 100)
	}
	if err := mach.BindInputInts("in", data); err != nil {
		t.Fatal(err)
	}
	fusedVsUnfused(t, "loop", mach, "out")
}

// TestFusionSuspendEverywhere suspends at every dynamic index of a small
// run, on a fused and an unfused machine, and requires the two paused states
// to be interchangeable: same suspension point, snapshots that match the
// other machine's state, and identical completions. Every dyn value is
// covered, so in particular every suspension that lands inside a fused span
// exercises the threshold fallback.
func TestFusionSuspendEverywhere(t *testing.T) {
	m := loopModule(t, 12)
	data := make([]int64, 12)
	for i := range data {
		data[i] = int64(i + 1)
	}
	newMach := func() *Machine {
		mach, err := New(m, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := mach.BindInputInts("in", data); err != nil {
			t.Fatal(err)
		}
		mach.Reset()
		return mach
	}
	base := newMach()
	baseRes := base.Run(RunOptions{})
	if baseRes.Trap != nil {
		t.Fatalf("baseline trap: %v", baseRes.Trap)
	}
	if base.FusedSteps() == 0 {
		t.Fatal("baseline run fused nothing; sweep would be vacuous")
	}
	out, _ := base.ReadGlobalInts("out")

	for d := int64(1); d < baseRes.Dyn; d++ {
		fm, um := newMach(), newMach()
		fres := fm.Run(RunOptions{SuspendAtDyn: d})
		ures := um.Run(RunOptions{SuspendAtDyn: d, Fuse: FuseOff})
		if fres.Trap == nil || fres.Trap.Kind != TrapSuspended ||
			ures.Trap == nil || ures.Trap.Kind != TrapSuspended {
			t.Fatalf("dyn %d: expected suspensions, got fused %v unfused %v", d, fres.Trap, ures.Trap)
		}
		if fres.Trap.Dyn != ures.Trap.Dyn {
			t.Fatalf("dyn %d: fused suspended at %d, unfused at %d", d, fres.Trap.Dyn, ures.Trap.Dyn)
		}
		usnap, err := um.Snapshot()
		if err != nil {
			t.Fatalf("dyn %d: snapshot: %v", d, err)
		}
		if !fm.MatchesSnapshot(usnap) {
			t.Fatalf("dyn %d: fused machine does not match the unfused snapshot", d)
		}
		fdone := fm.Run(RunOptions{})
		udone := um.Run(RunOptions{Fuse: FuseOff})
		if fdone.Trap != nil || udone.Trap != nil {
			t.Fatalf("dyn %d: resume traps %v / %v", d, fdone.Trap, udone.Trap)
		}
		fout, _ := fm.ReadGlobalInts("out")
		uout, _ := um.ReadGlobalInts("out")
		if fm.Dyn() != base.Dyn() || um.Dyn() != base.Dyn() || fout[0] != out[0] || uout[0] != out[0] {
			t.Fatalf("dyn %d: stitched runs diverge: dyn %d/%d/%d out %d/%d/%d",
				d, fm.Dyn(), um.Dyn(), base.Dyn(), fout[0], uout[0], out[0])
		}
	}
}

// TestFusionFaultTriggerSweep fires a deterministic fault at every dynamic
// index — register flips and branch-target redirects — and requires the
// fused and unfused engines to pick the same victim and land in the same
// final state, even when the trigger falls mid-span.
func TestFusionFaultTriggerSweep(t *testing.T) {
	m := loopModule(t, 12)
	data := make([]int64, 12)
	for i := range data {
		data[i] = int64(i * 11)
	}
	base, err := New(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := base.BindInputInts("in", data); err != nil {
		t.Fatal(err)
	}
	base.Reset()
	baseRes := base.Run(RunOptions{})
	if baseRes.Trap != nil {
		t.Fatalf("baseline trap: %v", baseRes.Trap)
	}

	type outcome struct {
		trapKind  TrapKind
		dyn       int64
		cycles    int64
		out       int64
		injected  bool
		targetUID int
		oldBits   uint64
		newBits   uint64
	}
	run := func(kind FaultKind, trigger int64, mode FuseMode) outcome {
		mach, err := New(m, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := mach.BindInputInts("in", data); err != nil {
			t.Fatal(err)
		}
		mach.Reset()
		rng := rand.New(rand.NewSource(trigger*64 + int64(kind)))
		plan := &FaultPlan{
			Kind:       kind,
			TriggerDyn: trigger,
			PickSlot:   func(n int) int { return rng.Intn(n) },
			PickBit:    func() int { return rng.Intn(64) },
		}
		res := mach.Run(RunOptions{Fault: plan, Fuse: mode})
		o := outcome{
			dyn: res.Dyn, cycles: res.Cycles,
			injected: plan.Injected, targetUID: plan.TargetUID,
			oldBits: plan.OldBits, newBits: plan.NewBits,
		}
		if res.Trap != nil {
			o.trapKind = res.Trap.Kind
		} else if out, err := mach.ReadGlobalInts("out"); err == nil {
			o.out = out[0]
		}
		return o
	}
	for _, kind := range []FaultKind{FaultRegister, FaultBranchTarget} {
		for d := int64(1); d < baseRes.Dyn; d++ {
			if f, u := run(kind, d, FuseAuto), run(kind, d, FuseOff); f != u {
				t.Fatalf("kind %d trigger %d: fused %+v, unfused %+v", kind, d, f, u)
			}
		}
	}
}
