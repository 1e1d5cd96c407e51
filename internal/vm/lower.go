package vm

// Precompiled execution engine, part 1: lowering.
//
// Each ir.Func is lowered once per module revision into a dense, flat
// instruction stream with pre-resolved operand slots, constants and global
// base addresses inlined, latencies classified, and branch targets resolved
// to instruction-stream offsets. Phi shuffles are compiled into per-CFG-edge
// parallel-copy batches so the hot loop never consults predecessor blocks.
//
// The lowering is cached on the ir.Module (Module.ExecCache) and shared by
// every Machine a fault campaign creates; engine.go holds the dispatch loop.
// Equivalence with the reference tree-walking interpreter (exec.go) is
// machine-checked — by the difftest oracle's engine cross-check invariant and
// by the engine equivalence tests — not asserted: both engines must produce
// bit-identical outputs, dynamic counts, cycle counts, check behavior, trace
// streams and fault attributions.

import (
	"repro/internal/ir"
)

// lop is a specialized lowered opcode: ir.Op × operand type resolved at
// lowering time so the dispatch loop needs no per-instruction type tests.
type lop uint8

// Lowered opcodes. The first four are pseudo-ops handled before the
// per-instruction preamble (they do not count as dynamic instructions).
const (
	lopBadEdge  lop = iota // phi with no incoming value for the arriving edge
	lopFellOff             // control fell off the end of a block
	lopPhiBatch            // per-edge parallel copy of the successor's phis
	lopPhiSeq              // hazard-free batch: single pass, no read scratch
	lopPhiOne              // single-phi edge: the batch machinery is overkill

	lopJmp
	lopBr
	lopRet
	lopCall
	lopLoad
	lopStore
	lopAlloca
	lopCmpCheck
	lopRangeCheckI
	lopRangeCheckF
	lopValCheckI
	lopValCheckF

	// Everything from lopIntrinsic on is a define-tail computation: the
	// dispatch loop tests op >= lopIntrinsic to enter the straight-line
	// path that shares one issue/define/profile/trace tail. Within the
	// zone, opcodes are ordered by arity — generic (nargs-driven), then
	// unary, then binary — so the dispatch loop resolves operand count
	// with compares on the opcode instead of loading nargs.

	// Generic-arity zone: operand fetch driven by nargs.
	lopIntrinsic // intrinsic of unusual arity (unknown kinds included)
	// lopZero is an op/type combination outside the interpreter's defined
	// set: it evaluates operands for readiness and defines 0 (the
	// reference interpreter's fall-through behavior on unverified IR).
	lopZero

	// Unary zone: op >= lopFirstUnary reads a0 only.
	lopNegI
	lopFToI
	lopNegF
	lopIToF
	lopIntrinsic1 // one-operand intrinsic; kind in aux

	// Binary zone: op >= lopFirstBinary reads a0 and a1.
	lopAddI
	lopSubI
	lopMulI
	lopDivI
	lopRemI
	lopAnd
	lopOr
	lopXor
	lopShl
	lopShr
	lopPtrAdd
	lopAddF
	lopSubF
	lopMulF
	lopDivF
	lopRemF
	lopEqI
	lopNeI
	lopLtI
	lopLeI
	lopGtI
	lopGeI
	lopEqF
	lopNeF
	lopLtF
	lopLeF
	lopGtF
	lopGeF
	lopIntrinsic2 // two-operand intrinsic; kind in aux
	lopClampI     // clamp(v, lo, hi): the one three-operand intrinsic; hi in aux
)

// Arity-zone boundaries (see the lop commentary above).
const (
	lopFirstUnary  = lopNegI
	lopFirstBinary = lopAddI
)

// Operands are pre-resolved int32 frame slots. Slots below NumValues hold
// params and instruction results; slots at NumValues and above are read-only
// extension slots holding the function's deduplicated constants and global
// base addresses, pre-filled when a frame is allocated (engine.go getFrame).
// The dispatch loop therefore reads any operand with one unconditional
// indexed load — no immediate-vs-register branch.

// phiMove is one element of a per-edge parallel copy.
type phiMove struct {
	dst int32
	src int32
	in  *ir.Instr // the phi, for tracing
}

// callSite is the out-of-line payload of a lopCall (arbitrary arity).
type callSite struct {
	callee *engFunc
	args   []int32
}

// linst is one lowered instruction. The layout is deliberately compact —
// 32 bytes, two per cache line — because instruction-fetch bandwidth
// dominates the dispatch loop. The aux field is shared by uses that never
// coincide: the branch predictor id (lopBr), the intrinsic kind
// (lopIntrinsic*), the third operand slot (three-operand checks, lopClampI,
// lopAlloca's frame-size constant), and the side-table index for
// variable-length payloads (lopCall argument lists, phi parallel copies).
// The original instruction pointer lives in the cold engFunc.ins side array,
// touched only by tracer/profiler/check/attribution paths (and, at lowering
// time, by fuseFunc's block-body test).
type linst struct {
	op    lop
	latk  latKind
	prof  bool   // eligible for the value profiler (loads, I64/F64 results)
	nargs uint8  // operand count (consulted only in the generic-arity zone)
	fop   fuseOp // fused-pair pattern this instruction heads (fuse.go), fNone otherwise
	fspan uint8  // event-checked dyn increments in the fused span
	dst   int32  // destination frame slot, -1 for void
	then  int32  // branch target pc / phi continuation pc
	els   int32  // lopBr false-target pc; lopPhiBatch/lopPhiSeq batch length
	a0    int32
	a1    int32
	aux   int32 // see above
}

// engFunc is one lowered function.
type engFunc struct {
	fn       *ir.Func
	idx      int // index into engModule.funcs / Machine.pools
	code     []linst
	ins      []*ir.Instr // pc -> original instruction (nil for pseudo-ops)
	entry    int32
	bodyPC   []int32  // block index -> pc of the block's first non-phi instruction
	consts   []uint64 // extension-slot images, framed at NumValues upward
	calls    []callSite
	phiMoves []phiMove // flat parallel-copy pool; batches are [aux, aux+els) slices
	// live answers which slots the rest of an activation can still read;
	// snapshots derive their per-level live slots from it (liveSlots).
	live *ir.Liveness
}

// engModule is a lowered module, shared by every Machine built from the
// same ir.Module revision. Immutable after lowerModule returns.
type engModule struct {
	funcs []*engFunc
	byFn  map[*ir.Func]*engFunc
}

// lowerModule lowers every function of mod. Global base addresses are
// assigned exactly as Machine.New lays them out (address 1 upward in
// declaration order), so they can be inlined as immediates.
func lowerModule(mod *ir.Module) *engModule {
	em := &engModule{byFn: make(map[*ir.Func]*engFunc, len(mod.Funcs))}
	base := make(map[string]uint64, len(mod.Globals))
	addr := uint64(1)
	for _, g := range mod.Globals {
		base[g.Name] = addr
		addr += uint64(g.Size)
	}
	for i, f := range mod.Funcs {
		ef := &engFunc{fn: f, idx: i}
		em.funcs = append(em.funcs, ef)
		em.byFn[f] = ef
	}
	for _, ef := range em.funcs {
		em.lowerFunc(ef, base)
	}
	return em
}

// fixup records a branch whose target pc depends on a not-yet-emitted edge.
type fixup struct {
	pc   int
	from *ir.Block
	to   *ir.Block
	els  bool
}

func (em *engModule) lowerFunc(ef *engFunc, base map[string]uint64) {
	fn := ef.fn
	ef.bodyPC = make([]int32, len(fn.Blocks))
	var code []linst
	var ins []*ir.Instr // kept in lockstep with code
	var fixups []fixup

	// konst interns a constant into the per-function pool and returns its
	// extension slot (NumValues upward).
	pool := make(map[uint64]int32)
	nvals := int32(fn.NumValues())
	konst := func(bits uint64) int32 {
		if s, ok := pool[bits]; ok {
			return s
		}
		s := nvals + int32(len(ef.consts))
		ef.consts = append(ef.consts, bits)
		pool[bits] = s
		return s
	}

	for _, b := range fn.Blocks {
		ef.bodyPC[b.Index] = int32(len(code))
		phis := b.Phis()
		for _, in := range b.Instrs[len(phis):] {
			switch in.Op {
			case ir.OpJmp:
				fixups = append(fixups, fixup{pc: len(code), from: b, to: in.Then})
			case ir.OpBr:
				fixups = append(fixups, fixup{pc: len(code), from: b, to: in.Then})
				fixups = append(fixups, fixup{pc: len(code), from: b, to: in.Else, els: true})
			}
			code = append(code, em.lowerInstr(ef, in, base, konst))
			ins = append(ins, in)
		}
		// The interpreter traps when a block runs out of instructions
		// without transferring control; unreachable after a terminator.
		code = append(code, linst{op: lopFellOff})
		ins = append(ins, nil)
	}

	// Edge segments: one parallel-copy batch per (pred, succ) edge whose
	// successor opens with phis; phi-free targets are entered directly.
	type edgeKey struct{ from, to int }
	edgePC := make(map[edgeKey]int32)
	edge := func(from, to *ir.Block) int32 {
		phis := to.Phis()
		if len(phis) == 0 {
			return ef.bodyPC[to.Index]
		}
		k := edgeKey{from.Index, to.Index}
		if pc, ok := edgePC[k]; ok {
			return pc
		}
		pc := int32(len(code))
		moves := make([]phiMove, 0, len(phis))
		ok := true
		for _, phi := range phis {
			v := phi.PhiIncoming(from)
			if v == nil {
				ok = false
				break
			}
			moves = append(moves, phiMove{dst: int32(phi.ID), src: lowerOperand(v, base, konst), in: phi})
		}
		switch {
		case ok && len(moves) == 1:
			// Most edges carry exactly one phi (loop counters); skip the
			// batch machinery entirely.
			mv := moves[0]
			code = append(code, linst{op: lopPhiOne, dst: mv.dst, a0: mv.src, then: ef.bodyPC[to.Index]})
			ins = append(ins, mv.in)
		case ok:
			// The interpreter reads every incoming value before defining any
			// phi (a parallel copy). When no destination feeds a later move's
			// source, a single forward pass reads the same values, so the
			// cheaper sequential form is exact.
			op := lopPhiSeq
		hazard:
			for j := range moves {
				for k := j + 1; k < len(moves); k++ {
					if moves[j].dst == moves[k].src {
						op = lopPhiBatch
						break hazard
					}
				}
			}
			code = append(code, linst{op: op, aux: int32(len(ef.phiMoves)), els: int32(len(moves)), then: ef.bodyPC[to.Index]})
			ins = append(ins, nil)
			ef.phiMoves = append(ef.phiMoves, moves...)
		default:
			code = append(code, linst{op: lopBadEdge})
			ins = append(ins, nil)
		}
		edgePC[k] = pc
		return pc
	}
	for _, fx := range fixups {
		pc := edge(fx.from, fx.to)
		if fx.els {
			code[fx.pc].els = pc
		} else {
			code[fx.pc].then = pc
		}
	}

	switch {
	case len(fn.Blocks) == 0:
		ef.entry = int32(len(code))
		code = append(code, linst{op: lopFellOff})
		ins = append(ins, nil)
	case len(fn.Entry().Phis()) > 0:
		// A phi at function entry has no incoming edge; the reference
		// interpreter traps before executing anything.
		ef.entry = int32(len(code))
		code = append(code, linst{op: lopBadEdge})
		ins = append(ins, nil)
	default:
		ef.entry = ef.bodyPC[0]
	}
	ef.code = code
	ef.ins = ins

	// Superinstruction annotation runs last, over the finalized stream: it
	// reads resolved branch targets and block membership and writes only the
	// side-band fop/fspan bytes (fuse.go). Baked into the module-cached
	// lowering unconditionally; whether fused dispatch actually runs is a
	// per-run decision (RunOptions.Fuse and the engine's events.fuse gate).
	fuseFunc(ef)
	ef.live = ir.ComputeLiveness(fn)
}

// liveSlots returns the frame slots of a level parked at pc that the rest
// of the run can still read: for the innermost level (inner) those live
// before the instruction at pc, for an outer level — parked on its
// in-flight call — those live after the call minus the call's result
// slot, which the post-call tail defines before anything reads it. nil
// when pc holds no such instruction; the caller then treats every written
// slot as live.
func (ef *engFunc) liveSlots(pc int, inner bool) []int32 {
	in := ef.ins[pc]
	if in == nil {
		return nil
	}
	var set ir.SlotSet
	switch {
	case inner:
		set = ef.live.LiveBefore(in)
	case ef.code[pc].op == lopCall:
		set = ef.live.LiveAfter(in)
	}
	if set == nil {
		return nil
	}
	slots := []int32{}
	for slot := range int32(ef.fn.NumValues()) {
		if set.Has(int(slot)) && (inner || slot != ef.code[pc].dst) {
			slots = append(slots, slot)
		}
	}
	return slots
}

func (em *engModule) lowerInstr(ef *engFunc, in *ir.Instr, base map[string]uint64, konst func(uint64) int32) linst {
	li := linst{latk: latKindOf(in), dst: -1}
	lowerArgs := func() {
		li.nargs = uint8(len(in.Args))
		switch {
		case len(in.Args) > 3:
			panic("vm: non-call instruction with more than three operands")
		case len(in.Args) > 2:
			li.aux = lowerOperand(in.Args[2], base, konst)
			fallthrough
		case len(in.Args) > 1:
			li.a1 = lowerOperand(in.Args[1], base, konst)
			fallthrough
		case len(in.Args) > 0:
			li.a0 = lowerOperand(in.Args[0], base, konst)
		}
	}
	switch in.Op {
	case ir.OpJmp:
		li.op = lopJmp
	case ir.OpBr:
		li.op = lopBr
		lowerArgs()
		li.aux = int32(in.UID) // after lowerArgs: a two-operand op, aux is free
	case ir.OpRet:
		li.op = lopRet
		lowerArgs()
	case ir.OpCall:
		li.op = lopCall
		li.aux = int32(len(ef.calls))
		if in.Ty != ir.Void {
			li.dst = int32(in.ID)
		}
		cs := callSite{callee: em.byFn[in.Callee], args: make([]int32, len(in.Args))}
		for i, a := range in.Args {
			cs.args[i] = lowerOperand(a, base, konst)
		}
		ef.calls = append(ef.calls, cs)
	case ir.OpLoad:
		li.op = lopLoad
		li.dst = int32(in.ID)
		li.prof = true
		lowerArgs()
	case ir.OpStore:
		li.op = lopStore
		lowerArgs()
	case ir.OpAlloca:
		li.op = lopAlloca
		li.dst = int32(in.ID)
		li.aux = konst(uint64(in.Args[0].(*ir.Const).Int()))
	case ir.OpCmpCheck:
		li.op = lopCmpCheck
		lowerArgs()
	case ir.OpRangeCheck:
		li.op = lopRangeCheckI
		if in.Args[0].Type() == ir.F64 {
			li.op = lopRangeCheckF
		}
		lowerArgs()
	case ir.OpValCheck:
		li.op = lopValCheckI
		if in.Args[0].Type() == ir.F64 {
			li.op = lopValCheckF
		}
		lowerArgs()
	case ir.OpIntrinsic:
		li.dst = int32(in.ID)
		li.prof = in.Ty == ir.I64 || in.Ty == ir.F64
		lowerArgs()
		// Arity-zoned forms carry the kind in aux; clamp — the one
		// three-operand intrinsic — gets its own opcode so aux can hold
		// the third operand instead (lowerArgs already put it there).
		switch {
		case in.Intrinsic == ir.IntrClampI && len(in.Args) == 3:
			li.op = lopClampI
		case len(in.Args) == 1:
			li.op = lopIntrinsic1
			li.aux = int32(in.Intrinsic)
		case len(in.Args) == 2:
			li.op = lopIntrinsic2
			li.aux = int32(in.Intrinsic)
		default:
			// Unusual arity: aux keeps whatever lowerArgs put there (the
			// third operand for readiness); the kind is read from the ins
			// side table on this cold path.
			li.op = lopIntrinsic
		}
	default:
		li.op = lowerArith(in)
		li.dst = int32(in.ID)
		li.prof = in.Ty == ir.I64 || in.Ty == ir.F64
		lowerArgs()
	}
	return li
}

// lowerArith resolves a pure computation to a typed opcode, replicating
// ir.Eval's decision tree: the float forms apply only to F64-typed
// results (FToI excepted), comparisons are typed by their first operand,
// and anything else falls through to Eval's implicit zero.
func lowerArith(in *ir.Instr) lop {
	if in.Ty == ir.F64 && in.Op != ir.OpFToI {
		switch in.Op {
		case ir.OpAdd:
			return lopAddF
		case ir.OpSub:
			return lopSubF
		case ir.OpMul:
			return lopMulF
		case ir.OpDiv:
			return lopDivF
		case ir.OpRem:
			return lopRemF
		case ir.OpNeg:
			return lopNegF
		case ir.OpIToF:
			return lopIToF
		}
	}
	switch in.Op {
	case ir.OpAdd:
		return lopAddI
	case ir.OpSub:
		return lopSubI
	case ir.OpMul:
		return lopMulI
	case ir.OpDiv:
		return lopDivI
	case ir.OpRem:
		return lopRemI
	case ir.OpAnd:
		return lopAnd
	case ir.OpOr:
		return lopOr
	case ir.OpXor:
		return lopXor
	case ir.OpShl:
		return lopShl
	case ir.OpShr:
		return lopShr
	case ir.OpNeg:
		return lopNegI
	case ir.OpFToI:
		return lopFToI
	case ir.OpPtrAdd:
		return lopPtrAdd
	}
	if in.Op.IsCompare() {
		if len(in.Args) > 0 && in.Args[0].Type() == ir.F64 {
			switch in.Op {
			case ir.OpEq:
				return lopEqF
			case ir.OpNe:
				return lopNeF
			case ir.OpLt:
				return lopLtF
			case ir.OpLe:
				return lopLeF
			case ir.OpGt:
				return lopGtF
			case ir.OpGe:
				return lopGeF
			}
		}
		switch in.Op {
		case ir.OpEq:
			return lopEqI
		case ir.OpNe:
			return lopNeI
		case ir.OpLt:
			return lopLtI
		case ir.OpLe:
			return lopLeI
		case ir.OpGt:
			return lopGtI
		case ir.OpGe:
			return lopGeI
		}
	}
	return lopZero
}

func lowerOperand(v ir.Value, base map[string]uint64, konst func(uint64) int32) int32 {
	switch x := v.(type) {
	case *ir.Const:
		return konst(x.Bits)
	case *ir.Param:
		return int32(x.ID)
	case *ir.Instr:
		return int32(x.ID)
	case *ir.Global:
		return konst(base[x.Name])
	}
	panic("vm: unknown value kind")
}
