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
		trapKind TrapKind
		dyn      int64
		cycles   int64
		out      int64
		fault    FaultRecord
	}
	run := func(branch bool, trigger int64, mode FuseMode) outcome {
		mach, err := New(m, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := mach.BindInputInts("in", data); err != nil {
			t.Fatal(err)
		}
		mach.Reset()
		seed := trigger * 64
		if branch {
			seed++
		}
		opts := InjectAt(branch, trigger, rand.New(rand.NewSource(seed)))
		opts.Fuse = mode
		res := mach.Run(opts)
		o := outcome{dyn: res.Dyn, cycles: res.Cycles, fault: RecordOf(opts)}
		if res.Trap != nil {
			o.trapKind = res.Trap.Kind
		} else if out, err := mach.ReadGlobalInts("out"); err == nil {
			o.out = out[0]
		}
		return o
	}
	for _, branch := range []bool{false, true} {
		for d := int64(1); d < baseRes.Dyn; d++ {
			if f, u := run(branch, d, FuseAuto), run(branch, d, FuseOff); f != u {
				t.Fatalf("branch %v trigger %d: fused %+v, unfused %+v", branch, d, f, u)
			}
		}
	}
}

// fusedPair is one fused pattern written as an adjacent pair over operands
// loaded from in[]. emit builds the pair, stores its results to out and
// returns the pair's head and, where ir.Eval defines every stored word, the
// expected words and trap for given operand bits; a nil want leaves the
// tree engine as the only reference (the load of AddLoad reads whatever
// word its edge-operand address names).
type fusedPair struct {
	name string
	fop  fuseOp
	tys  []ir.Type
	emit func(b *ir.Builder, in, out *ir.Global, a []ir.Value) (head *ir.Instr, want func(a []uint64) ([]uint64, TrapKind))
}

// evalInstr is what ir.Eval says a binary instruction computes.
func evalInstr(in *ir.Instr, a, b uint64) uint64 {
	bits, _ := ir.Eval(in.Op, in.Ty, in.Args[0].Type(), a, b)
	return bits
}

// storeOut stores vals to out[0], out[1], ...; a store sits right behind
// the pair, so the pair's second constituent never heads a pair of its own.
func storeOut(b *ir.Builder, out *ir.Global, vals ...ir.Value) {
	for i, v := range vals {
		var p ir.Value = out
		if i > 0 {
			p = b.PtrAdd(out, ir.ConstInt(int64(i)))
		}
		b.Store(p, v)
	}
}

func fusedPairs() []fusedPair {
	i64x2, i64x3, f64x3 := []ir.Type{ir.I64, ir.I64}, []ir.Type{ir.I64, ir.I64, ir.I64}, []ir.Type{ir.F64, ir.F64, ir.F64}
	arith := func(fop fuseOp, tys []ir.Type, op1, op2 ir.Op) fusedPair {
		return fusedPair{fusePatternNames[fop], fop, tys, func(b *ir.Builder, _, out *ir.Global, a []ir.Value) (*ir.Instr, func([]uint64) ([]uint64, TrapKind)) {
			r1 := b.Bin(op1, a[0], a[1])
			r2 := b.Bin(op2, r1, a[2])
			storeOut(b, out, r1, r2)
			b.Ret(nil)
			return r1, func(a []uint64) ([]uint64, TrapKind) {
				e1 := evalInstr(r1, a[0], a[1])
				return []uint64{e1, evalInstr(r2, e1, a[2])}, TrapNone
			}
		}}
	}
	loadArith := func(fop fuseOp, op ir.Op) fusedPair {
		return fusedPair{fusePatternNames[fop], fop, i64x2, func(b *ir.Builder, in, out *ir.Global, a []ir.Value) (*ir.Instr, func([]uint64) ([]uint64, TrapKind)) {
			l := b.Load(ir.I64, in) // in[0] again, through a constant address
			r := b.Bin(op, l, a[1])
			storeOut(b, out, l, r)
			b.Ret(nil)
			return l, func(a []uint64) ([]uint64, TrapKind) {
				return []uint64{a[0], evalInstr(r, a[0], a[1])}, TrapNone
			}
		}}
	}
	cmpBr := func(op ir.Op) fusedPair {
		return fusedPair{"CmpBrI/" + op.String(), fCmpBrI, i64x2, func(b *ir.Builder, _, out *ir.Global, a []ir.Value) (*ir.Instr, func([]uint64) ([]uint64, TrapKind)) {
			c := b.Bin(op, a[0], a[1])
			then, els := b.Block("then"), b.Block("else")
			b.Br(c, then, els)
			for i, blk := range []*ir.Block{then, els} {
				b.SetBlock(blk)
				storeOut(b, out, c, ir.ConstInt(int64(i+1)))
				b.Ret(nil)
			}
			return c, func(a []uint64) ([]uint64, TrapKind) {
				e := evalInstr(c, a[0], a[1])
				if e != 0 {
					return []uint64{e, 1}, TrapNone
				}
				return []uint64{e, 2}, TrapNone
			}
		}}
	}
	pairs := []fusedPair{
		arith(fAddAdd, i64x3, ir.OpAdd, ir.OpAdd),
		arith(fAddSub, i64x3, ir.OpAdd, ir.OpSub),
		arith(fAddLt, i64x3, ir.OpAdd, ir.OpLt),
		arith(fMulAdd, i64x3, ir.OpMul, ir.OpAdd),
		arith(fMulSub, i64x3, ir.OpMul, ir.OpSub),
		arith(fMulMul, i64x3, ir.OpMul, ir.OpMul),
		arith(fSubAdd, i64x3, ir.OpSub, ir.OpAdd),
		arith(fSubMul, i64x3, ir.OpSub, ir.OpMul),
		arith(fAddAddF, f64x3, ir.OpAdd, ir.OpAdd),
		arith(fMulAddF, f64x3, ir.OpMul, ir.OpAdd),
		arith(fMulMulF, f64x3, ir.OpMul, ir.OpMul),
		loadArith(fLoadSub, ir.OpSub),
		loadArith(fLoadMul, ir.OpMul),
		{"AddLoad", fAddLoad, []ir.Type{ir.I64}, func(b *ir.Builder, in, out *ir.Global, a []ir.Value) (*ir.Instr, func([]uint64) ([]uint64, TrapKind)) {
			p := b.PtrAdd(in, a[0])
			storeOut(b, out, p, b.Load(ir.I64, p))
			b.Ret(nil)
			return p, nil
		}},
		{"AddJmp", fAddJmp, i64x2, func(b *ir.Builder, _, out *ir.Global, a []ir.Value) (*ir.Instr, func([]uint64) ([]uint64, TrapKind)) {
			r := b.Bin(ir.OpAdd, a[0], a[1])
			next := b.Block("next")
			b.Jmp(next)
			b.SetBlock(next)
			storeOut(b, out, r)
			b.Ret(nil)
			return r, func(a []uint64) ([]uint64, TrapKind) { return []uint64{evalInstr(r, a[0], a[1])}, TrapNone }
		}},
		{"JmpPhi", fJmpPhi, []ir.Type{ir.I64}, func(b *ir.Builder, _, out *ir.Global, a []ir.Value) (*ir.Instr, func([]uint64) ([]uint64, TrapKind)) {
			from, next := b.Cur, b.Block("next")
			j := b.Jmp(next)
			b.SetBlock(next)
			phi := b.Phi(ir.I64)
			ir.AddIncoming(phi, a[0], from)
			storeOut(b, out, phi)
			b.Ret(nil)
			return j, func(a []uint64) ([]uint64, TrapKind) { return []uint64{a[0]}, TrapNone }
		}},
		{"CmpCheckJmp", fCmpCheckJmp, i64x2, func(b *ir.Builder, _, out *ir.Global, a []ir.Value) (*ir.Instr, func([]uint64) ([]uint64, TrapKind)) {
			chk := b.Emit(&ir.Instr{Op: ir.OpCmpCheck, Args: []ir.Value{a[0], a[1]}, Check: ir.CheckDup, CheckID: 1})
			next := b.Block("next")
			b.Jmp(next)
			b.SetBlock(next)
			storeOut(b, out, a[0])
			b.Ret(nil)
			return chk, func(a []uint64) ([]uint64, TrapKind) {
				if a[0] != a[1] {
					return nil, TrapCheck
				}
				return []uint64{a[0]}, TrapNone
			}
		}},
	}
	for _, op := range []ir.Op{ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe} {
		pairs = append(pairs, cmpBr(op))
	}
	return pairs
}

// TestFusedPairsMatchEval runs every fused pattern as a two-instruction
// module over edge operands and requires the fused handler, the unfused
// dispatch and the tree interpreter to agree bit for bit — stored words,
// trap, dyn and cycles — and the stored words to be what ir.Eval computes.
// The float pairs meet two distinct NaN payloads here, which is what keeps
// their dedicated handlers honest: a handler that computes an op with its
// operands placed differently from the unfused switch can return the other
// NaN.
func TestFusedPairsMatchEval(t *testing.T) {
	covered := map[fuseOp]bool{}
	for _, p := range fusedPairs() {
		m := ir.NewModule("pair")
		in := m.AddGlobal("in", len(p.tys))
		out := m.AddGlobal("out", 2)
		b := ir.NewBuilder(m.NewFunc("main", ir.Void))
		args := make([]ir.Value, len(p.tys))
		for i, ty := range p.tys {
			args[i] = b.Load(ty, b.PtrAdd(in, ir.ConstInt(int64(i))))
		}
		// A store between the operand loads and the pair keeps the last
		// load from pairing with the pair's head.
		b.Store(out, ir.ConstInt(0))
		head, want := p.emit(b, in, out, args)
		m.Renumber()
		if err := m.Verify(); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}

		machs := make([]*Machine, 2)
		for i, engine := range []EngineKind{EngineFast, EngineTree} {
			cfg := DefaultConfig()
			cfg.StackWords = 16
			cfg.Engine = engine
			mach, err := New(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			machs[i] = mach
		}
		fast, tree := machs[0], machs[1]
		ef := fast.eng.funcs[0]
		for pc, in := range ef.ins {
			if in == head && ef.code[pc].fop != p.fop {
				t.Fatalf("%s: the pair's head carries pattern %d, want %d", p.name, ef.code[pc].fop, p.fop)
			}
		}
		covered[p.fop] = true

		type outcome struct {
			trap        TrapKind
			dyn, cycles int64
			out         [2]uint64
		}
		run := func(mach *Machine, a []uint64, mode FuseMode) outcome {
			if err := mach.BindInput("in", a); err != nil {
				t.Fatal(err)
			}
			mach.Reset()
			res := mach.Run(RunOptions{Fuse: mode})
			o := outcome{dyn: res.Dyn, cycles: res.Cycles}
			if res.Trap != nil {
				o.trap, o.dyn = res.Trap.Kind, res.Trap.Dyn
			} else {
				words, _ := mach.ReadGlobal("out")
				copy(o.out[:], words)
			}
			return o
		}
		a := make([]uint64, len(p.tys))
		var walk func(i int)
		walk = func(i int) {
			if i < len(a) {
				for _, v := range edgeOperands(p.tys[i]) {
					a[i] = v
					walk(i + 1)
				}
				return
			}
			fused := run(fast, a, FuseAuto)
			if fast.FusedSteps() == 0 {
				t.Fatalf("%s(%#x): the fused run executed no fused handler", p.name, a)
			}
			if unfused, ref := run(fast, a, FuseOff), run(tree, a, FuseAuto); fused != unfused || fused != ref {
				t.Fatalf("%s(%#x): fused %+v, unfused %+v, tree %+v", p.name, a, fused, unfused, ref)
			}
			if want == nil {
				return
			}
			words, trap := want(a)
			if fused.trap != trap {
				t.Fatalf("%s(%#x): trap %v, ir.Eval says %v", p.name, a, fused.trap, trap)
			}
			for i, w := range words {
				if fused.out[i] != w {
					t.Fatalf("%s(%#x): out[%d] = %#x, ir.Eval says %#x", p.name, a, i, fused.out[i], w)
				}
			}
		}
		walk(0)
	}
	for fop := fNone + 1; int(fop) < len(fusePatternNames); fop++ {
		if !covered[fop] {
			t.Errorf("pattern %s has no pair here", fusePatternNames[fop])
		}
	}
}
