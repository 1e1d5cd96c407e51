package vm

// Superinstruction fusion for the precompiled engine.
//
// After lowerFunc finalizes a function's flat linst stream, fuseFunc walks it
// once and annotates each instruction that heads a hot adjacent pair with a
// fuseOp pattern id. The stream itself is NOT rewritten: constituents stay in
// place with their own opcodes and operand slots, and the annotation lives in
// two otherwise-padding bytes of the 32-byte linst. The dispatch loop
// (engine.go) consults the annotation at the top of each iteration and, when
// the whole span provably fits below the unified event threshold, runs both
// constituents in one straight-line handler — skipping one dispatch, one
// event compare, and the tracer/profiler nil tests per fused constituent.
//
// The eight integer arithmetic pairs share one handler, and the two
// load+arith pairs another; both compute each arithmetic constituent by its
// own opcode (intPairOp — integer arithmetic wraps, so any pairing is
// exact). The float pairs keep one handler each, written exactly as the
// unfused switch writes the op: when both operands are NaN, Go leaves open
// which payload an add or mul returns, the compiled answer follows operand
// placement, so a shared handler can return a different NaN than the
// unfused path (TestFusedPairsMatchEval feeds them two payloads). AddLoad
// and the control and check pairs have their own handlers.
//
// This side-band design is what keeps the engine's bit-identical-observability
// invariant cheap:
//
//   - Mid-span entry is free. A branch target, resume point, snapshot pc or
//     trap-retry landing on the second constituent simply dispatches it
//     through the normal unfused path — the fused annotation on the previous
//     pc is never consulted.
//   - Threshold fallback is automatic. The fused handler only runs when
//     dyn + fspan <= events.fuse, where fspan counts the span's
//     event-checked dynamic increments and events.fuse mirrors the engine's
//     events.next threshold. If a suspend point, fault hook, watchdog bound or
//     cancellation poll lands anywhere inside the span, the condition fails
//     and the constituents execute unfused, hitting the event at exactly the
//     instruction the unfused engine would.
//   - Traps need no new machinery. A trapping constituent flushes dyn and
//     the issue cursor (Machine.trapAt) and returns the same Trap its unfused counterpart
//     would, so Result, snapshots and fault attribution are unchanged.
//
// Pattern selection is measured: a pattern stays in the table only while it
// carries at least 1% of some registered scheme's fused steps, summed over
// the 13 workloads' Test-input golden runs (TestFusedPatternsCarryWeight
// replays fused dispatch over traced runs to enforce it). The survivors are
// the array-indexing chain (mul+add, add+load via ptradd, load+arith),
// compare+branch loop latches, loop-counter add+jmp(+phi) back edges, and
// the duplication schemes' shadow signatures (add+add, cmpcheck+jmp).
// Division, remainder, stores, generic intrinsics, alloca, calls and
// non-CmpCheck checks never fuse: their trap/arity paths are cold or their
// pairs too rare to pay for a handler.

import "repro/internal/ir"

// fuseOp identifies the fused-pair pattern a linst heads; fNone on every
// instruction that does not begin a fused span. Patterns are keyed by
// computation, not opcode: lopAddI and lopPtrAdd share compute and latency
// class, so one "Add" pattern covers both (the handler reads latk and
// operands from the constituent linsts).
type fuseOp uint8

const (
	fNone fuseOp = iota

	// Integer arithmetic pairs ("Add" spans lopAddI and lopPtrAdd).
	fAddAdd
	fAddSub
	fAddLt
	fMulAdd
	fMulSub
	fMulMul
	fSubAdd
	fSubMul

	// Float arithmetic pairs.
	fAddAddF
	fMulAddF
	fMulMulF

	// Memory pairs (address-generation chains).
	fAddLoad
	fLoadSub
	fLoadMul

	// Control pairs.
	fCmpBrI
	fAddJmp
	fJmpPhi

	// Check pairs: a duplication comparison closing its block.
	fCmpCheckJmp
)

// fuseOf matches an adjacent in-block pair (a, b) against the pattern
// table, returning the pattern and the span's event-checked dyn increments.
func fuseOf(a, b *linst) (fuseOp, uint8) {
	switch a.op {
	case lopAddI, lopPtrAdd:
		switch b.op {
		case lopAddI, lopPtrAdd:
			return fAddAdd, 2
		case lopSubI:
			return fAddSub, 2
		case lopLtI:
			return fAddLt, 2
		case lopLoad:
			return fAddLoad, 2
		case lopJmp:
			return fAddJmp, 2
		}
	case lopMulI:
		switch b.op {
		case lopAddI, lopPtrAdd:
			return fMulAdd, 2
		case lopSubI:
			return fMulSub, 2
		case lopMulI:
			return fMulMul, 2
		}
	case lopSubI:
		switch b.op {
		case lopAddI, lopPtrAdd:
			return fSubAdd, 2
		case lopMulI:
			return fSubMul, 2
		}
	case lopLoad:
		switch b.op {
		case lopSubI:
			return fLoadSub, 2
		case lopMulI:
			return fLoadMul, 2
		}
	case lopAddF:
		if b.op == lopAddF {
			return fAddAddF, 2
		}
	case lopMulF:
		switch b.op {
		case lopAddF:
			return fMulAddF, 2
		case lopMulF:
			return fMulMulF, 2
		}
	case lopEqI, lopNeI, lopLtI, lopLeI, lopGtI, lopGeI:
		// The branch handler reads its condition from l2.a0 like the unfused
		// lopBr, so the compare result need not feed the branch for the pair
		// to be exact (it almost always does).
		if b.op == lopBr {
			return fCmpBrI, 2
		}
	case lopCmpCheck:
		if b.op == lopJmp {
			return fCmpCheckJmp, 2
		}
	}
	return fNone, 0
}

// fuseFunc annotates ef's stream with fused-pair heads. Pair candidates must
// be adjacent within one block body (sameBody), which excludes any span
// crossing control flow, and the fuseOf table excludes calls, checks (except
// the FullDup CmpCheck patterns) and trap-heavy arithmetic. A jump whose
// target is a single-phi edge segment additionally heads a jmp+phi pair; its
// fspan is 1 because phi copies never pass the event check (in either
// engine), though the handler still advances dyn by 2.
//
// Annotated heads may overlap (pc and pc+1 can both head pairs): execution
// entering at pc consumes both constituents and lands at pc+2, so pc+1's
// annotation only fires for control entering there directly. Overlap costs
// nothing and maximizes coverage without a scheduling pass.
func fuseFunc(ef *engFunc) {
	code, ins := ef.code, ef.ins
	for pc := range code {
		li := &code[pc]
		if pc+1 < len(code) && sameBody(ins[pc], ins[pc+1]) {
			if f, span := fuseOf(li, &code[pc+1]); f != fNone {
				li.fop, li.fspan = f, span
				continue
			}
		}
		if li.op == lopJmp && code[li.then].op == lopPhiOne {
			li.fop, li.fspan = fJmpPhi, 1
		}
	}
}

// sameBody reports whether two side-table entries are real instructions of
// one block body. Pseudo-ops carry nil and single-phi edge segments carry
// their phi, so neither phi-edge segments nor a block's trailing fell-off
// guard ever pair.
func sameBody(a, b *ir.Instr) bool {
	return a != nil && b != nil && a.Op != ir.OpPhi && b.Op != ir.OpPhi && a.Blk == b.Blk
}

// FuseMode controls superinstruction dispatch for one run.
type FuseMode uint8

const (
	// FuseAuto (the zero value) enables fused dispatch whenever the run has
	// no tracer and no profiler attached; traced or profiled runs always
	// take the per-instruction path, so per-instruction event streams never
	// need fused-op awareness.
	FuseAuto FuseMode = iota
	// FuseOff forces the per-instruction path unconditionally.
	FuseOff
)

// FusedSites reports how many instructions of the machine's lowered module
// head a fused span — a static property of the (module-cached) lowering.
// Zero under the tree engine.
func (m *Machine) FusedSites() int {
	if m.eng == nil {
		return 0
	}
	n := 0
	for _, ef := range m.eng.funcs {
		for pc := range ef.code {
			if ef.code[pc].fop != fNone {
				n++
			}
		}
	}
	return n
}

// FusedSteps reports how many fused-pair handlers this machine has executed
// since its last Reset. The counter is diagnostic — it is kept in the
// dispatch loop's event state and flushed at every escape point (returns,
// traps, suspensions, nested calls) and every event-threshold pass, so it
// is exact whenever the machine is stopped. It is not part of Result,
// Snapshot or the equivalence surface: fused and unfused runs differ in it
// by design.
func (m *Machine) FusedSteps() int64 { return m.fusedSteps }
