package vm

// Precompiled execution engine, part 2: dispatch.
//
// execLoop runs a lowered function (see lower.go) over the same frame, memory,
// timing, trap, check, tracer, profiler and fault-injection machinery as the
// reference tree-walking interpreter in exec.go. Each step of the reference
// blockLoop has a counterpart here, in the same order, so the two engines are
// observationally identical: same Result fields bit-for-bit, same trace
// stream, same fault attribution. Per-operand work that the interpreter pays
// on every dynamic instruction — the ir.Value interface type-switch, the
// predecessor scan for phis, the latency classification — was paid once at
// lowering time; frames are pooled per function so campaigns of thousands of
// trials stop allocating.

import (
	"math"

	"repro/internal/ir"
)

// stopCheckMask throttles cancellation polls: the Stop channel is consulted
// once every 8192 dynamic instructions, in both engines at the same points,
// so an unconsumed Stop never perturbs execution.
const stopCheckMask = 1<<13 - 1

// get resolves a pre-lowered operand slot; constants and global addresses
// live in pre-filled extension slots, so no immediate branch is needed.
func (fr *frame) get(o int32) uint64 {
	return fr.regs[o].bits
}

// readyAt returns the cycle a pre-lowered operand is available; extension
// slots keep a ready time of 0 forever (constants and global addresses are
// always ready, as in Machine.readyOf).
func (fr *frame) readyAt(o int32) int64 {
	return fr.regs[o].ready
}

// getFrame returns a zeroed activation record for ef, reusing a pooled one
// when available. Only slots on the written list can hold stale state
// (define appends every written slot to it, and the fault-access surface
// mutates written slots only), so clearing those restores the all-zero
// state a fresh allocation would have — garbage control flow after a branch
// fault reads undefined slots as 0 in both engines.
func (m *Machine) getFrame(ef *engFunc) *frame {
	pool := m.pools[ef.idx]
	var fr *frame
	if n := len(pool); n > 0 {
		fr = pool[n-1]
		m.pools[ef.idx] = pool[:n-1]
		for _, s := range fr.written {
			fr.regs[s] = reg{}
			fr.defined[s] = false
		}
		fr.written = fr.written[:0]
	} else {
		n := ef.fn.NumValues()
		total := n + len(ef.consts)
		fr = &frame{
			fn:      ef.fn,
			regs:    make([]reg, total),
			written: make([]int32, 0, n),
			defined: make([]bool, total),
		}
		// Extension slots: constants are defined nowhere, so they are never
		// on the written list and survive pooled reuse untouched.
		for i, c := range ef.consts {
			fr.regs[n+i].bits = c
		}
	}
	fr.entrySP = m.sp
	return fr
}

func (m *Machine) putFrame(ef *engFunc, fr *frame) {
	m.pools[ef.idx] = append(m.pools[ef.idx], fr)
}

// execCall is the engine counterpart of Machine.call.
func (m *Machine) execCall(ef *engFunc, args []uint64, depth int) (uint64, *Trap) {
	if depth > m.cfg.MaxDepth {
		return 0, &Trap{Kind: TrapStackOverflow, Dyn: m.dyn, Fn: ef.fn.Name}
	}
	fr := m.getFrame(ef)
	now := m.timing.cursor
	for i := range args {
		fr.define(i, args[i], now)
	}
	ret, trap := m.execLoop(ef, fr, depth, int(ef.entry))
	if trap != nil && trap.Kind == TrapSuspended {
		// The frame stays live in m.susp and sp keeps the suspended stack
		// extent; both are released by the resumed run (or Reset/Restore).
		return 0, trap
	}
	m.sp = fr.entrySP
	m.putFrame(ef, fr)
	return ret, trap
}

// events is one execLoop activation's event state, shared with the helpers
// that write each dispatch rule once (event, flush).
//
// The three per-instruction events — fault hook, watchdog, stop poll — and
// the suspend point are folded into one compare of dyn against next (in
// pre-increment dyn terms). The slow path re-checks the exact original
// conditions, so a stale-low next costs one extra pass and nothing else; no
// event can move earlier without going through the slow path, which
// recomputes it. next = 0 forces recomputation.
//
// Fused dispatch (fuse.go) is gated on fuse: a fused span of k
// event-checked constituents may only run when every constituent's
// pre-increment dyn stays below the event threshold — dyn + k <= fuse — so
// no suspend, injection, watchdog or poll can land inside it; otherwise the
// span falls back to per-instruction dispatch and the event fires at
// exactly the constituent it would unfused — a branch a hook redirects
// included, since the hook fires at that branch. fuse mirrors next and is
// armed only at the slow-path recomputes, so it is never stale-high: events
// only move later or vanish within a run (a hook fired out of line, in a
// callee or a resumed inner level, only moved m.hookAt later). It stays 0 —
// no fused entry — under FuseOff and under a tracer or profiler (their
// per-instruction event streams take the unfused path).
type events struct {
	suspendAt int64 // MaxInt64 when the run has no suspend point
	next      int64 // earliest pending fire point
	fuse      int64 // fused dispatch gate: next, or 0 while fusion is off
	fused     int64 // fused handlers run since the last flush to m.fusedSteps
	fuseOn    bool
}

// flush writes execLoop's register-resident state — dyn, the issue cursor
// and the fused-handler tally — back to the machine. Every escape point
// calls it: nested calls, check failures, fault redirection, suspensions,
// traps and returns.
func (m *Machine) flush(ev *events, dyn, cur int64, slot int, maxDone int64) {
	m.dyn = dyn
	m.timing.cursor, m.timing.slotUsed, m.timing.maxDone = cur, slot, maxDone
	m.fusedSteps += ev.fused
	ev.fused = 0
}

// trapAt flushes the dispatch state and returns a kind trap at dyn in fn.
func (m *Machine) trapAt(ev *events, kind TrapKind, fn *ir.Func, dyn, cur int64, slot int, maxDone int64) *Trap {
	m.flush(ev, dyn, cur, slot, maxDone)
	return &Trap{Kind: kind, Dyn: dyn, Fn: fn.Name}
}

// event is the per-instruction event preamble's slow path, taken by both
// dispatch paths once dyn reaches ev.next. In the reference blockLoop's
// order it suspends, fires a due fault hook, advances dyn, and checks the
// watchdog and the stop poll; then it flushes the fused tally and
// recomputes the thresholds. It returns the advanced dyn, or the trap that
// ends this activation.
func (m *Machine) event(ev *events, ef *engFunc, fr *frame, pc int, dyn, cur int64, slot int, maxDone int64) (int64, *Trap) {
	if dyn >= ev.suspendAt {
		m.susp = append(m.susp, suspLevel{ef: ef, fr: fr, pc: pc})
		return dyn, m.trapAt(ev, TrapSuspended, ef.fn, dyn, cur, slot, maxDone)
	}
	if dyn >= m.hookAt {
		m.dyn = dyn
		m.fireHook(fr, ef.ins[pc])
	}
	dyn++
	maxDyn := m.cfg.MaxDyn
	if dyn > maxDyn {
		return dyn, m.trapAt(ev, TrapWatchdog, ef.fn, dyn, cur, slot, maxDone)
	}
	if m.stop != nil && dyn&stopCheckMask == 0 {
		select {
		case <-m.stop:
			return dyn, m.trapAt(ev, TrapCancelled, ef.fn, dyn, cur, slot, maxDone)
		default:
		}
	}
	m.fusedSteps += ev.fused
	ev.fused = 0
	next := maxDyn
	if ev.suspendAt < next {
		next = ev.suspendAt
	}
	if m.stop != nil && dyn|stopCheckMask < next {
		next = dyn | stopCheckMask
	}
	if m.hookAt < next {
		next = m.hookAt
	}
	ev.next, ev.fuse = next, 0
	if ev.fuseOn {
		ev.fuse = next
	}
	return dyn, nil
}

// execLoop interprets ef's lowered code against fr starting at pc: the
// function's entry for a call, the suspend point for a resumed level.
//
// Dispatch is two-level: every define-tail computation (op >= lopIntrinsic)
// runs through one straight-line path — event check, inline arithmetic
// switch, shared issue/define/profile/trace tail — while control flow,
// memory and checks take the second switch. Both paths keep the hot
// dyn < ev.next test inline and share one out-of-line slow path (event).
// A fused pair (fuse.go) runs ahead of both when the event gate allows.
func (m *Machine) execLoop(ef *engFunc, fr *frame, depth, pc int) (uint64, *Trap) {
	code := ef.code
	fn := ef.fn

	// Loop-invariant state. None of these change during a run: the tracer
	// and profiler are per-run options, and the latency table is baked at
	// machine construction.
	tracer := m.opts.Tracer
	profiler := m.opts.Profiler
	tm := m.timing
	lats := &m.lats
	mem := m.mem
	insTab := ef.ins

	// The issue state — cycle, slot count, completion horizon — stays in
	// locals too, threaded through issueAt, the one step every dynamic
	// instruction takes; it is flushed alongside dyn at every escape point
	// and reloaded after nested calls. issueAt, branchAt, frame.define and
	// timing.access inline here only while this function stays under the
	// Go inliner's "big function" size (DESIGN.md, "Each machine rule is
	// written once"); `go build -gcflags=-m=2` says when it is not.
	cur, slot, maxDone := tm.cursor, tm.slotUsed, tm.maxDone
	width := tm.width
	bpen := tm.cfg.BranchPenalty
	pred := tm.predictor
	predMask := tm.predMask

	// The dynamic instruction counter stays in a local for the duration of
	// the loop — it is the single hottest value in the machine — and is
	// written back to m.dyn at every escape point (flush).
	dyn := m.dyn

	ev := events{
		suspendAt: math.MaxInt64,
		fuseOn:    m.opts.Fuse == FuseAuto && tracer == nil && profiler == nil,
	}
	if m.opts.SuspendAtDyn > 0 {
		ev.suspendAt = m.opts.SuspendAtDyn
	}

	// Re-entry after a suspension: every level above the innermost one is
	// parked on the lopCall it was executing when the run suspended. The
	// call preamble — dyn increment, argument marshalling, issue slot — ran
	// before the snapshot was taken, so re-enter the callee directly and
	// rejoin at the normal post-call tail. resumePos is -1 outside the
	// drill-down, so ordinary calls never take this branch.
	if m.resumePos >= 0 {
		li := &code[pc]
		ret, trap := m.execResumeNext(depth + 1)
		if trap != nil {
			if trap.Kind == TrapSuspended {
				m.susp = append(m.susp, suspLevel{ef: ef, fr: fr, pc: pc})
			}
			return 0, trap
		}
		dyn, cur, slot, maxDone = m.dyn, tm.cursor, tm.slotUsed, tm.maxDone
		var tbits uint64
		if li.dst >= 0 {
			fr.define(int(li.dst), ret, cur)
			tbits = ret
		}
		if tracer != nil {
			tracer.Trace(dyn, fn.Name, insTab[pc], tbits)
		}
		pc++
	}

	for {
		li := &code[pc]
		op := li.op

		// Fused dispatch (fuse.go): when this pc heads a fused pair and the
		// whole span sits strictly below the event threshold, both
		// constituents run in one straight-line handler. Each handler
		// replicates the unfused per-constituent semantics exactly — operand
		// reads, issue/latency calls, define order, trap protocol — minus the
		// event preamble (provably dead inside the span: every constituent's
		// pre-increment dyn is below ev.next) and the tracer/profiler hooks
		// (both nil whenever ev.fuse is armed). Trap-capable constituents
		// advance dyn individually so trap Dyn values stay exact.
		if li.fop != fNone && dyn+int64(li.fspan) <= ev.fuse {
			l2 := &code[pc+1]
			ev.fused++
			var done int64
			switch li.fop {
			case fAddAdd, fAddSub, fAddLt, fMulAdd, fMulSub, fMulMul, fSubAdd, fSubMul:
				// The integer pairs share one handler: each constituent
				// computes by its own op (intPairOp). Integer arithmetic
				// wraps, so the result is exact for every pairing.
				dyn += 2
				a0, a1 := fr.get(li.a0), fr.get(li.a1)
				opsReady := maxi(fr.readyAt(li.a0), fr.readyAt(li.a1))
				cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, opsReady, lats[li.latk])
				fr.define(int(li.dst), intPairOp(li.op, a0, a1), done)
				b0, b1 := fr.get(l2.a0), fr.get(l2.a1)
				opsReady = maxi(fr.readyAt(l2.a0), fr.readyAt(l2.a1))
				cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, opsReady, lats[l2.latk])
				fr.define(int(l2.dst), intPairOp(l2.op, b0, b1), done)
				pc += 2
				continue

			case fAddLoad:
				dyn++
				a0, a1 := fr.get(li.a0), fr.get(li.a1)
				opsReady := maxi(fr.readyAt(li.a0), fr.readyAt(li.a1))
				cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, opsReady, lats[li.latk])
				fr.define(int(li.dst), a0+a1, done)
				dyn++
				addr := fr.get(l2.a0)
				if addr == 0 || addr >= uint64(len(mem)) {
					return 0, m.trapAt(&ev, TrapOOB, fn, dyn, cur, slot, maxDone)
				}
				cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, fr.readyAt(l2.a0), tm.access(addr))
				fr.define(int(l2.dst), mem[addr], done)
				if m.acc != nil {
					m.acc.load(addr)
				}
				pc += 2
				continue

			case fLoadSub, fLoadMul:
				// Load then integer arithmetic, by the same rule.
				dyn++
				addr := fr.get(li.a0)
				if addr == 0 || addr >= uint64(len(mem)) {
					return 0, m.trapAt(&ev, TrapOOB, fn, dyn, cur, slot, maxDone)
				}
				cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, fr.readyAt(li.a0), tm.access(addr))
				fr.define(int(li.dst), mem[addr], done)
				if m.acc != nil {
					m.acc.load(addr)
				}
				dyn++
				b0, b1 := fr.get(l2.a0), fr.get(l2.a1)
				opsReady := maxi(fr.readyAt(l2.a0), fr.readyAt(l2.a1))
				cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, opsReady, lats[l2.latk])
				fr.define(int(l2.dst), intPairOp(l2.op, b0, b1), done)
				pc += 2
				continue

			// The float pairs keep one handler each, written exactly as the
			// unfused switch writes the op: Go leaves open which NaN payload
			// an add or mul of two NaNs returns, and the compiled answer
			// follows operand placement, so a shared handler could return a
			// different NaN than the unfused path.
			case fAddAddF:
				dyn += 2
				a0, a1 := fr.get(li.a0), fr.get(li.a1)
				opsReady := maxi(fr.readyAt(li.a0), fr.readyAt(li.a1))
				cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, opsReady, lats[li.latk])
				fr.define(int(li.dst), f2b(b2f(a0)+b2f(a1)), done)
				b0, b1 := fr.get(l2.a0), fr.get(l2.a1)
				opsReady = maxi(fr.readyAt(l2.a0), fr.readyAt(l2.a1))
				cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, opsReady, lats[l2.latk])
				fr.define(int(l2.dst), f2b(b2f(b0)+b2f(b1)), done)
				pc += 2
				continue

			case fMulAddF:
				dyn += 2
				a0, a1 := fr.get(li.a0), fr.get(li.a1)
				opsReady := maxi(fr.readyAt(li.a0), fr.readyAt(li.a1))
				cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, opsReady, lats[li.latk])
				fr.define(int(li.dst), f2b(b2f(a0)*b2f(a1)), done)
				b0, b1 := fr.get(l2.a0), fr.get(l2.a1)
				opsReady = maxi(fr.readyAt(l2.a0), fr.readyAt(l2.a1))
				cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, opsReady, lats[l2.latk])
				fr.define(int(l2.dst), f2b(b2f(b0)+b2f(b1)), done)
				pc += 2
				continue

			case fMulMulF:
				dyn += 2
				a0, a1 := fr.get(li.a0), fr.get(li.a1)
				opsReady := maxi(fr.readyAt(li.a0), fr.readyAt(li.a1))
				cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, opsReady, lats[li.latk])
				fr.define(int(li.dst), f2b(b2f(a0)*b2f(a1)), done)
				b0, b1 := fr.get(l2.a0), fr.get(l2.a1)
				opsReady = maxi(fr.readyAt(l2.a0), fr.readyAt(l2.a1))
				cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, opsReady, lats[l2.latk])
				fr.define(int(l2.dst), f2b(b2f(b0)*b2f(b1)), done)
				pc += 2
				continue

			case fCmpBrI:
				dyn += 2
				a0, a1 := fr.get(li.a0), fr.get(li.a1)
				opsReady := maxi(fr.readyAt(li.a0), fr.readyAt(li.a1))
				cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, opsReady, lats[li.latk])
				var bits uint64
				switch li.op {
				case lopEqI:
					bits = cbits(a0 == a1)
				case lopNeI:
					bits = cbits(a0 != a1)
				case lopLtI:
					bits = cbits(int64(a0) < int64(a1))
				case lopLeI:
					bits = cbits(int64(a0) <= int64(a1))
				case lopGtI:
					bits = cbits(int64(a0) > int64(a1))
				default: // lopGeI
					bits = cbits(int64(a0) >= int64(a1))
				}
				fr.define(int(li.dst), bits, done)
				// Like the unfused lopBr, the condition is read from the
				// branch's own operand slot — the fused pair does not assume
				// the compare feeds the branch.
				cond := fr.get(l2.a0)
				cur, slot, maxDone, _ = issueAt(cur, slot, width, maxDone, fr.readyAt(l2.a0), 0)
				cur, slot = branchAt(cur, slot, pred, predMask, int(l2.aux), cond != 0, bpen)
				if cond != 0 {
					pc = int(l2.then)
				} else {
					pc = int(l2.els)
				}
				continue

			case fAddJmp:
				dyn += 2
				a0, a1 := fr.get(li.a0), fr.get(li.a1)
				opsReady := maxi(fr.readyAt(li.a0), fr.readyAt(li.a1))
				cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, opsReady, lats[li.latk])
				fr.define(int(li.dst), a0+a1, done)
				cur, slot, maxDone, _ = issueAt(cur, slot, width, maxDone, 0, 0)
				pc = int(l2.then)
				continue

			case fJmpPhi:
				// The phi copy is a pseudo-op: it advances dyn but never
				// passes the event preamble (matching blockLoop), which is
				// why this span's fspan is 1.
				dyn += 2
				cur, slot, maxDone, _ = issueAt(cur, slot, width, maxDone, 0, 0)
				pe := &code[li.then]
				v := fr.get(pe.a0)
				cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, 0, lats[latInt])
				fr.define(int(pe.dst), v, done)
				pc = int(pe.then)
				continue

			case fCmpCheckJmp:
				dyn++
				a := fr.get(li.a0)
				b := fr.get(li.a1)
				opsReady := maxi(fr.readyAt(li.a0), fr.readyAt(li.a1))
				cur, slot, maxDone, _ = issueAt(cur, slot, width, maxDone, opsReady, lats[latCheck])
				if a != b {
					m.flush(&ev, dyn, cur, slot, maxDone)
					if t := m.checkFailed(insTab[pc]); t != nil {
						return 0, t
					}
				}
				dyn++
				cur, slot, maxDone, _ = issueAt(cur, slot, width, maxDone, 0, 0)
				pc = int(l2.then)
				continue
			}
		}

		if op >= lopIntrinsic {
			// Fast path: pure computations sharing the define tail.
			if dyn < ev.next {
				dyn++
			} else {
				var t *Trap
				if dyn, t = m.event(&ev, ef, fr, pc, dyn, cur, slot, maxDone); t != nil {
					return 0, t
				}
			}

			var a0, a1 uint64
			var opsReady int64
			if op >= lopFirstBinary {
				a0 = fr.get(li.a0)
				opsReady = fr.readyAt(li.a0)
				a1 = fr.get(li.a1)
				if r := fr.readyAt(li.a1); r > opsReady {
					opsReady = r
				}
			} else if op >= lopFirstUnary {
				a0 = fr.get(li.a0)
				opsReady = fr.readyAt(li.a0)
			} else if li.nargs > 0 {
				// Generic-arity zone: lopIntrinsic and lopZero.
				a0 = fr.get(li.a0)
				opsReady = fr.readyAt(li.a0)
				if li.nargs > 1 {
					a1 = fr.get(li.a1)
					if r := fr.readyAt(li.a1); r > opsReady {
						opsReady = r
					}
					if li.nargs > 2 {
						if r := fr.readyAt(li.aux); r > opsReady {
							opsReady = r
						}
					}
				}
			}

			var bits uint64
			switch op {
			case lopAddI, lopPtrAdd:
				bits = a0 + a1
			case lopSubI:
				bits = a0 - a1
			case lopMulI:
				bits = a0 * a1
			case lopDivI:
				x, y := int64(a0), int64(a1)
				switch {
				case y == 0:
					return 0, m.trapAt(&ev, TrapDivZero, fn, dyn, cur, slot, maxDone)
				case x == math.MinInt64 && y == -1:
					bits = a0 // hardware-style overflow wrap
				default:
					bits = uint64(x / y)
				}
			case lopRemI:
				x, y := int64(a0), int64(a1)
				switch {
				case y == 0:
					return 0, m.trapAt(&ev, TrapDivZero, fn, dyn, cur, slot, maxDone)
				case x == math.MinInt64 && y == -1:
					bits = 0
				default:
					bits = uint64(x % y)
				}
			case lopAnd:
				bits = a0 & a1
			case lopOr:
				bits = a0 | a1
			case lopXor:
				bits = a0 ^ a1
			case lopShl:
				bits = uint64(int64(a0) << uint(a1&63))
			case lopShr:
				bits = uint64(int64(a0) >> uint(a1&63))
			case lopNegI:
				bits = uint64(-int64(a0))
			case lopFToI:
				f := b2f(a0)
				switch {
				case math.IsNaN(f):
					bits = 0
				case f >= math.MaxInt64:
					bits = uint64(int64(math.MaxInt64))
				case f <= math.MinInt64:
					v := int64(math.MinInt64)
					bits = uint64(v)
				default:
					bits = uint64(int64(f))
				}

			case lopAddF:
				bits = f2b(b2f(a0) + b2f(a1))
			case lopSubF:
				bits = f2b(b2f(a0) - b2f(a1))
			case lopMulF:
				bits = f2b(b2f(a0) * b2f(a1))
			case lopDivF:
				bits = f2b(b2f(a0) / b2f(a1))
			case lopRemF:
				bits = f2b(math.Mod(b2f(a0), b2f(a1)))
			case lopNegF:
				bits = f2b(-b2f(a0))
			case lopIToF:
				bits = f2b(float64(int64(a0)))

			case lopEqI:
				bits = cbits(a0 == a1)
			case lopNeI:
				bits = cbits(a0 != a1)
			case lopLtI:
				bits = cbits(int64(a0) < int64(a1))
			case lopLeI:
				bits = cbits(int64(a0) <= int64(a1))
			case lopGtI:
				bits = cbits(int64(a0) > int64(a1))
			case lopGeI:
				bits = cbits(int64(a0) >= int64(a1))
			case lopEqF:
				bits = cbits(b2f(a0) == b2f(a1))
			case lopNeF:
				bits = cbits(b2f(a0) != b2f(a1))
			case lopLtF:
				bits = cbits(b2f(a0) < b2f(a1))
			case lopLeF:
				bits = cbits(b2f(a0) <= b2f(a1))
			case lopGtF:
				bits = cbits(b2f(a0) > b2f(a1))
			case lopGeF:
				bits = cbits(b2f(a0) >= b2f(a1))

			case lopClampI:
				v, lo, hi := int64(a0), int64(a1), int64(fr.get(li.aux))
				if r := fr.readyAt(li.aux); r > opsReady {
					opsReady = r
				}
				if v < lo {
					v = lo
				}
				if v > hi {
					v = hi
				}
				bits = uint64(v)

			case lopIntrinsic1, lopIntrinsic2, lopIntrinsic:
				// The arity-zoned forms carry the kind in aux; the generic
				// form reads it from the side table. Clamp, the one reader
				// of a third operand, has its own opcode.
				kind := ir.Intrinsic(li.aux)
				if op == lopIntrinsic {
					kind = insTab[pc].Intrinsic
				}
				var ok bool
				bits, ok = ir.EvalIntrinsic(kind, a0, a1, 0)
				if !ok {
					return 0, m.trapAt(&ev, TrapBadCall, fn, dyn, cur, slot, maxDone)
				}
				// lopZero: op/type combination outside the interpreter's
				// defined set; the reference engine defines 0.
			}

			var done int64
			cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, opsReady, lats[li.latk])
			fr.define(int(li.dst), bits, done)
			if li.prof && profiler != nil {
				profiler.Record(insTab[pc], bits)
			}
			if tracer != nil {
				tracer.Trace(dyn, fn.Name, insTab[pc], bits)
			}
			pc++
			continue
		}

		// Pseudo-ops replicate blockLoop control outside the per-instruction
		// path: neither phi resolution nor the two block-integrity traps pass
		// through the fault-check/dyn/watchdog preamble in the interpreter.
		switch op {
		case lopPhiOne:
			v := fr.get(li.a0)
			dyn++
			var done int64
			cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, 0, lats[latInt])
			fr.define(int(li.dst), v, done)
			if tracer != nil {
				tracer.Trace(dyn, fn.Name, insTab[pc], v)
			}
			pc = int(li.then)
			continue
		case lopPhiSeq:
			moves := ef.phiMoves[li.aux : li.aux+li.els]
			for i := range moves {
				v := fr.get(moves[i].src)
				dyn++
				var done int64
				cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, 0, lats[latInt])
				fr.define(int(moves[i].dst), v, done)
				if tracer != nil {
					tracer.Trace(dyn, fn.Name, moves[i].in, v)
				}
			}
			pc = int(li.then)
			continue
		case lopPhiBatch:
			moves := ef.phiMoves[li.aux : li.aux+li.els]
			scratch := m.phiScratch[:0]
			for i := range moves {
				scratch = append(scratch, fr.get(moves[i].src))
			}
			for i := range moves {
				dyn++
				var done int64
				cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, 0, lats[latInt])
				fr.define(int(moves[i].dst), scratch[i], done)
				if tracer != nil {
					tracer.Trace(dyn, fn.Name, moves[i].in, scratch[i])
				}
			}
			m.phiScratch = scratch[:0]
			pc = int(li.then)
			continue
		case lopBadEdge, lopFellOff:
			// An edge with no incoming phi value, or control falling off a
			// block, which a verified function never does.
			return 0, m.trapAt(&ev, TrapBadCall, fn, dyn, cur, slot, maxDone)
		}

		if dyn < ev.next {
			dyn++
		} else {
			var t *Trap
			if dyn, t = m.event(&ev, ef, fr, pc, dyn, cur, slot, maxDone); t != nil {
				return 0, t
			}
		}

		var tbits uint64
		var failed bool
		switch op {
		case lopJmp, lopBr:
			npc := int(li.then)
			if op == lopBr {
				cond := fr.get(li.a0)
				cur, slot, maxDone, _ = issueAt(cur, slot, width, maxDone, fr.readyAt(li.a0), 0)
				cur, slot = branchAt(cur, slot, pred, predMask, int(li.aux), cond != 0, bpen)
				if cond == 0 {
					npc = int(li.els)
				}
			} else {
				cur, slot, maxDone, _ = issueAt(cur, slot, width, maxDone, 0, 0)
			}
			if tracer != nil {
				tracer.Trace(dyn, fn.Name, insTab[pc], 0)
			}
			if m.redirect != nil {
				m.flush(&ev, dyn, cur, slot, maxDone)
				var t *Trap
				if npc, t = m.branchFault(ef, fr, insTab[pc].Blk); t != nil {
					return 0, t
				}
				dyn, cur, slot, maxDone = m.dyn, tm.cursor, tm.slotUsed, tm.maxDone
			}
			pc = npc
			continue

		case lopRet:
			var ret uint64
			if li.nargs > 0 {
				ret = fr.get(li.a0)
			}
			cur, slot, maxDone, _ = issueAt(cur, slot, width, maxDone, 0, 0)
			if tracer != nil {
				tracer.Trace(dyn, fn.Name, insTab[pc], 0)
			}
			m.flush(&ev, dyn, cur, slot, maxDone)
			return ret, nil

		case lopCall:
			cs := &ef.calls[li.aux]
			n := len(cs.args)
			if cap(m.callScratch) < n {
				m.callScratch = make([]uint64, n)
			}
			// The scratch is consumed into the callee frame before the
			// callee body runs, so nested calls can safely reuse it.
			cargs := m.callScratch[:n]
			var opsReady int64
			for i, o := range cs.args {
				cargs[i] = fr.get(o)
				if r := fr.readyAt(o); r > opsReady {
					opsReady = r
				}
			}
			cur, slot, maxDone, _ = issueAt(cur, slot, width, maxDone, opsReady, m.cfg.Timing.CallOverhead)
			m.flush(&ev, dyn, cur, slot, maxDone)
			ret, trap := m.execCall(cs.callee, cargs, depth+1)
			if trap != nil {
				if trap.Kind == TrapSuspended {
					// This level parks on the in-flight call.
					m.susp = append(m.susp, suspLevel{ef: ef, fr: fr, pc: pc})
				}
				return 0, trap
			}
			dyn, cur, slot, maxDone = m.dyn, tm.cursor, tm.slotUsed, tm.maxDone
			if li.dst >= 0 {
				fr.define(int(li.dst), ret, cur)
				tbits = ret
			}

		case lopStore:
			addr := fr.get(li.a0)
			if addr == 0 || addr >= uint64(len(mem)) {
				return 0, m.trapAt(&ev, TrapOOB, fn, dyn, cur, slot, maxDone)
			}
			val := fr.get(li.a1)
			opsReady := maxi(fr.readyAt(li.a0), fr.readyAt(li.a1))
			tm.access(addr)
			cur, slot, maxDone, _ = issueAt(cur, slot, width, maxDone, opsReady, lats[latStore])
			mem[addr] = val
			m.wrote(addr)
			if m.acc != nil {
				m.acc.store(addr)
			}

		case lopLoad:
			addr := fr.get(li.a0)
			if addr == 0 || addr >= uint64(len(mem)) {
				return 0, m.trapAt(&ev, TrapOOB, fn, dyn, cur, slot, maxDone)
			}
			lat := tm.access(addr)
			var done int64
			cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, fr.readyAt(li.a0), lat)
			bits := mem[addr]
			fr.define(int(li.dst), bits, done)
			if m.acc != nil {
				m.acc.load(addr)
			}
			tbits = bits
			if profiler != nil {
				profiler.Record(insTab[pc], bits)
			}

		case lopAlloca:
			size := fr.get(li.aux)
			if m.sp+size > m.memWords {
				return 0, m.trapAt(&ev, TrapStackOverflow, fn, dyn, cur, slot, maxDone)
			}
			addr := m.sp
			m.sp += size
			var done int64
			cur, slot, maxDone, done = issueAt(cur, slot, width, maxDone, 0, lats[latInt])
			fr.define(int(li.dst), addr, done)
			tbits = addr

		// Checks issue on their first operand's ready time (a CmpCheck on
		// both) and share one failure tail below.
		case lopCmpCheck:
			a := fr.get(li.a0)
			b := fr.get(li.a1)
			opsReady := maxi(fr.readyAt(li.a0), fr.readyAt(li.a1))
			cur, slot, maxDone, _ = issueAt(cur, slot, width, maxDone, opsReady, lats[latCheck])
			failed = a != b

		case lopRangeCheckI:
			v := int64(fr.get(li.a0))
			lo := int64(fr.get(li.a1))
			hi := int64(fr.get(li.aux))
			cur, slot, maxDone, _ = issueAt(cur, slot, width, maxDone, fr.readyAt(li.a0), lats[latCheck])
			failed = v < lo || v > hi

		case lopRangeCheckF:
			v := b2f(fr.get(li.a0))
			lo := b2f(fr.get(li.a1))
			hi := b2f(fr.get(li.aux))
			cur, slot, maxDone, _ = issueAt(cur, slot, width, maxDone, fr.readyAt(li.a0), lats[latCheck])
			failed = !(v >= lo && v <= hi)

		case lopValCheckI:
			v := fr.get(li.a0)
			ok := v == fr.get(li.a1)
			if !ok && li.nargs == 3 {
				ok = v == fr.get(li.aux)
			}
			cur, slot, maxDone, _ = issueAt(cur, slot, width, maxDone, fr.readyAt(li.a0), lats[latCheck])
			failed = !ok

		case lopValCheckF:
			// Numeric, not bitwise, to match the value profiler (see the
			// OpValCheck commentary in exec.go: -0.0 must equal 0).
			v := b2f(fr.get(li.a0))
			ok := v == b2f(fr.get(li.a1))
			if !ok && li.nargs == 3 {
				ok = v == b2f(fr.get(li.aux))
			}
			cur, slot, maxDone, _ = issueAt(cur, slot, width, maxDone, fr.readyAt(li.a0), lats[latCheck])
			failed = !ok
		}
		if failed {
			m.flush(&ev, dyn, cur, slot, maxDone)
			if t := m.checkFailed(insTab[pc]); t != nil {
				return 0, t
			}
		}
		if tracer != nil {
			tracer.Trace(dyn, fn.Name, insTab[pc], tbits)
		}
		pc++
	}
}

// branchFault is the engine counterpart of maybeBranchFault, called with
// the machine flushed after a branch a hook redirected (RedirectBranch): it
// sends the branch to the hook's block instead of its real successor and
// resolves the landing edge dynamically (the lowered code only has edge
// batches for real CFG edges). It returns the pc to continue at.
func (m *Machine) branchFault(ef *engFunc, fr *frame, from *ir.Block) (int, *Trap) {
	target := m.redirect
	m.redirect = nil
	m.laxPhis = true
	return m.dynEdge(ef, fr, from, target)
}

// dynEdge resolves the phi prefix of to for an edge arriving from from —
// the interpreter's blockLoop prologue — and returns the pc of to's body.
// Only reached on the branch-fault slow path; real edges were precompiled.
func (m *Machine) dynEdge(ef *engFunc, fr *frame, from, to *ir.Block) (int, *Trap) {
	phis := to.Phis()
	if len(phis) == 0 {
		return int(ef.bodyPC[to.Index]), nil
	}
	scratch := m.phiScratch[:0]
	for _, phi := range phis {
		v := phi.PhiIncoming(from)
		if v == nil {
			return 0, &Trap{Kind: TrapBadCall, Dyn: m.dyn, Fn: ef.fn.Name}
		}
		scratch = append(scratch, m.eval(fr, v))
	}
	for i, phi := range phis {
		m.dyn++
		done := m.timing.issue(0, m.lats[latInt])
		fr.define(phi.ID, scratch[i], done)
		m.trace(ef.fn, phi, scratch[i])
	}
	m.phiScratch = scratch[:0]
	return int(ef.bodyPC[to.Index]), nil
}

// intPairOp computes one constituent of an integer fused pair by its own
// opcode; fuseOf pairs no other integer ops.
func intPairOp(op lop, a, b uint64) uint64 {
	switch op {
	case lopMulI:
		return a * b
	case lopSubI:
		return a - b
	case lopLtI:
		return cbits(int64(a) < int64(b))
	}
	return a + b // lopAddI, lopPtrAdd
}

func cbits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
