package vm

import (
	"math"

	"repro/internal/ir"
)

// reg is one frame slot: the value and the cycle it becomes available.
// Keeping them adjacent means every operand read and every define touches
// one cache line instead of two parallel arrays.
type reg struct {
	bits  uint64
	ready int64
}

// frame is one activation record.
type frame struct {
	fn   *ir.Func
	regs []reg
	// written lists slots that have been written, in definition order;
	// register faults pick uniformly from it (register-file analog).
	written []int32
	defined []bool
	entrySP uint64
}

func (m *Machine) newFrame(fn *ir.Func) *frame {
	n := fn.NumValues()
	return &frame{
		fn:      fn,
		regs:    make([]reg, n),
		written: make([]int32, 0, n),
		defined: make([]bool, n),
		entrySP: m.sp,
	}
}

func (fr *frame) define(slot int, bits uint64, ready int64) {
	fr.regs[slot] = reg{bits: bits, ready: ready}
	if !fr.defined[slot] {
		fr.defined[slot] = true
		fr.written = append(fr.written, int32(slot))
	}
}

// eval resolves an operand to its bit pattern.
func (m *Machine) eval(fr *frame, v ir.Value) uint64 {
	switch x := v.(type) {
	case *ir.Const:
		return x.Bits
	case *ir.Param:
		return fr.regs[x.ID].bits
	case *ir.Instr:
		return fr.regs[x.ID].bits
	case *ir.Global:
		return m.globalBase[x.Name]
	}
	panic("vm: unknown value kind")
}

// readyOf returns the cycle an operand is available.
func (m *Machine) readyOf(fr *frame, v ir.Value) int64 {
	switch x := v.(type) {
	case *ir.Param:
		return fr.regs[x.ID].ready
	case *ir.Instr:
		return fr.regs[x.ID].ready
	}
	return 0
}

// trace forwards one executed instruction to the optional tracer.
func (m *Machine) trace(fn *ir.Func, in *ir.Instr, bits uint64) {
	if m.opts.Tracer != nil {
		m.opts.Tracer.Trace(m.dyn, fn.Name, in, bits)
	}
}

// maybeBranchFault sends the branch just taken to the block a hook chose
// for it (RedirectBranch), if any. It sets laxPhis so garbage control flow
// propagates instead of tripping interpreter integrity checks.
func (m *Machine) maybeBranchFault(blk **ir.Block) {
	if m.redirect == nil {
		return
	}
	*blk, m.redirect = m.redirect, nil
	m.laxPhis = true
}

// RelChange is the relative change |now-old| / max(|old|, 1) of a value of
// type ty corrupted from bits old to bits now: the large-versus-small USDC
// attribution (Figure 2) every fault model records. Words of any type but
// F64 read as int64; an F64 change that is NaN or infinite counts as +Inf.
func RelChange(ty ir.Type, old, now uint64) float64 {
	if ty == ir.F64 {
		o, n := math.Float64frombits(old), math.Float64frombits(now)
		rc := math.Abs(n-o) / math.Max(math.Abs(o), 1)
		if math.IsNaN(rc) || math.IsInf(rc, 0) {
			return math.Inf(1)
		}
		return rc
	}
	o, n := int64(old), int64(now)
	return math.Abs(float64(n)-float64(o)) / math.Max(math.Abs(float64(o)), 1)
}

// call interprets fn with the given argument bits.
func (m *Machine) call(fn *ir.Func, args []uint64, depth int) (uint64, *Trap) {
	if depth > m.cfg.MaxDepth {
		return 0, &Trap{Kind: TrapStackOverflow, Dyn: m.dyn, Fn: fn.Name}
	}
	fr := m.newFrame(fn)
	now := m.timing.cursor
	for i := range args {
		fr.define(i, args[i], now)
	}
	defer func() { m.sp = fr.entrySP }()

	trapAt := func(k TrapKind) *Trap { return &Trap{Kind: k, Dyn: m.dyn, Fn: fn.Name} }

	blk := fn.Entry()
	var prev *ir.Block
	// Scratch for parallel phi copies.
	var phiBits []uint64

blockLoop:
	for {
		// Resolve the phi prefix as a parallel copy from prev.
		phis := blk.Phis()
		if len(phis) > 0 {
			phiBits = phiBits[:0]
			for _, phi := range phis {
				v := phi.PhiIncoming(prev)
				if v == nil {
					return 0, trapAt(TrapBadCall)
				}
				phiBits = append(phiBits, m.eval(fr, v))
			}
			for i, phi := range phis {
				m.dyn++
				done := m.timing.issue(0, m.lats[latInt])
				fr.define(phi.ID, phiBits[i], done)
				m.trace(fn, phi, phiBits[i])
			}
		}

		for idx := len(phis); idx < len(blk.Instrs); idx++ {
			in := blk.Instrs[idx]

			if m.dyn >= m.hookAt {
				m.fireHook(fr, in)
			}
			m.dyn++
			if m.dyn > m.cfg.MaxDyn {
				return 0, trapAt(TrapWatchdog)
			}
			if m.stop != nil && m.dyn&stopCheckMask == 0 {
				select {
				case <-m.stop:
					return 0, trapAt(TrapCancelled)
				default:
				}
			}

			// tbits is the value the instruction produces, reported to the
			// tracer after execution (the Tracer contract). Control-flow
			// ops trace before they leave the loop; everything else traces
			// at the bottom of the iteration.
			var tbits uint64
			switch in.Op {
			case ir.OpJmp:
				m.timing.issue(0, 0)
				m.trace(fn, in, 0)
				prev, blk = blk, in.Then
				m.maybeBranchFault(&blk)
				continue blockLoop

			case ir.OpBr:
				cond := m.eval(fr, in.Args[0])
				m.timing.issue(m.readyOf(fr, in.Args[0]), 0)
				m.timing.branch(in.UID, cond != 0)
				m.trace(fn, in, 0)
				prev = blk
				if cond != 0 {
					blk = in.Then
				} else {
					blk = in.Else
				}
				m.maybeBranchFault(&blk)
				continue blockLoop

			case ir.OpRet:
				var ret uint64
				if len(in.Args) > 0 {
					ret = m.eval(fr, in.Args[0])
				}
				m.timing.issue(0, 0)
				m.trace(fn, in, 0)
				return ret, nil

			case ir.OpCall:
				cargs := make([]uint64, len(in.Args))
				var opsReady int64
				for i, a := range in.Args {
					cargs[i] = m.eval(fr, a)
					if r := m.readyOf(fr, a); r > opsReady {
						opsReady = r
					}
				}
				m.timing.issue(opsReady, m.cfg.Timing.CallOverhead)
				ret, trap := m.call(in.Callee, cargs, depth+1)
				if trap != nil {
					return 0, trap
				}
				if in.Ty != ir.Void {
					fr.define(in.ID, ret, m.timing.cursor)
					tbits = ret
				}

			case ir.OpStore:
				addr := m.eval(fr, in.Args[0])
				if addr == 0 || addr >= m.memWords {
					return 0, trapAt(TrapOOB)
				}
				val := m.eval(fr, in.Args[1])
				opsReady := maxi(m.readyOf(fr, in.Args[0]), m.readyOf(fr, in.Args[1]))
				m.timing.access(addr)
				m.timing.issue(opsReady, m.lats[latStore])
				m.mem[addr] = val
				m.wrote(addr)

			case ir.OpLoad:
				addr := m.eval(fr, in.Args[0])
				if addr == 0 || addr >= m.memWords {
					return 0, trapAt(TrapOOB)
				}
				lat := m.timing.access(addr)
				done := m.timing.issue(m.readyOf(fr, in.Args[0]), lat)
				bits := m.mem[addr]
				fr.define(in.ID, bits, done)
				tbits = bits
				if m.opts.Profiler != nil {
					m.opts.Profiler.Record(in, bits)
				}

			case ir.OpAlloca:
				size := uint64(in.Args[0].(*ir.Const).Int())
				if m.sp+size > m.memWords {
					return 0, trapAt(TrapStackOverflow)
				}
				addr := m.sp
				m.sp += size
				done := m.timing.issue(0, m.lats[latInt])
				fr.define(in.ID, addr, done)
				tbits = addr

			case ir.OpCmpCheck:
				a := m.eval(fr, in.Args[0])
				b := m.eval(fr, in.Args[1])
				opsReady := maxi(m.readyOf(fr, in.Args[0]), m.readyOf(fr, in.Args[1]))
				m.timing.issue(opsReady, m.lats[latCheck])
				if a != b {
					if t := m.checkFailed(in); t != nil {
						return 0, t
					}
				}

			case ir.OpRangeCheck:
				v := m.eval(fr, in.Args[0])
				lo := m.eval(fr, in.Args[1])
				hi := m.eval(fr, in.Args[2])
				m.timing.issue(m.readyOf(fr, in.Args[0]), m.lats[latCheck])
				out := false
				if in.Args[0].Type() == ir.F64 {
					fv := math.Float64frombits(v)
					out = !(fv >= math.Float64frombits(lo) && fv <= math.Float64frombits(hi))
				} else {
					iv := int64(v)
					out = iv < int64(lo) || iv > int64(hi)
				}
				if out {
					if t := m.checkFailed(in); t != nil {
						return 0, t
					}
				}

			case ir.OpValCheck:
				v := m.eval(fr, in.Args[0])
				// Expected-value constants come from the value profiler,
				// which compares numerically — so must we: -0.0 profiles
				// as 0 and must satisfy a v==0 check (bitwise comparison
				// would fire on the profiled input itself). Float range
				// checks below already compare numerically for the same
				// reason.
				isF := in.Args[0].Type() == ir.F64
				eq := func(a, b uint64) bool {
					if isF {
						return math.Float64frombits(a) == math.Float64frombits(b)
					}
					return a == b
				}
				ok := eq(v, m.eval(fr, in.Args[1]))
				if !ok && len(in.Args) == 3 {
					ok = eq(v, m.eval(fr, in.Args[2]))
				}
				m.timing.issue(m.readyOf(fr, in.Args[0]), m.lats[latCheck])
				if !ok {
					if t := m.checkFailed(in); t != nil {
						return 0, t
					}
				}

			default:
				bits, trap := m.evalArith(fr, in)
				if trap != nil {
					return 0, trap
				}
				var opsReady int64
				for _, a := range in.Args {
					if r := m.readyOf(fr, a); r > opsReady {
						opsReady = r
					}
				}
				done := m.timing.issue(opsReady, m.lats[latKindOf(in)])
				fr.define(in.ID, bits, done)
				tbits = bits
				if m.opts.Profiler != nil && (in.Ty == ir.I64 || in.Ty == ir.F64) {
					m.opts.Profiler.Record(in, bits)
				}
			}
			m.trace(fn, in, tbits)
		}
		// A verified function never falls off a block.
		return 0, trapAt(TrapBadCall)
	}
}

// checkFailed handles a failing software check: count or trap.
func (m *Machine) checkFailed(in *ir.Instr) *Trap {
	if m.opts.DisabledChecks != nil && m.opts.DisabledChecks[in.CheckID] {
		return nil
	}
	m.checkFails++
	if m.opts.CountChecks {
		m.perCheckFails[in.CheckID]++
		return nil
	}
	return &Trap{Kind: TrapCheck, Dyn: m.dyn, CheckID: in.CheckID, CheckKind: in.Check, Fn: in.Blk.Fn.Name}
}

// evalArith executes pure computations through the ir evaluators, which the
// constant folder shares.
func (m *Machine) evalArith(fr *frame, in *ir.Instr) (uint64, *Trap) {
	a0 := m.eval(fr, in.Args[0])
	var a1, a2 uint64
	if len(in.Args) > 1 {
		a1 = m.eval(fr, in.Args[1])
	}
	if in.Op == ir.OpIntrinsic {
		if len(in.Args) > 2 {
			a2 = m.eval(fr, in.Args[2])
		}
		if bits, ok := ir.EvalIntrinsic(in.Intrinsic, a0, a1, a2); ok {
			return bits, nil
		}
		return 0, &Trap{Kind: TrapBadCall, Dyn: m.dyn, Fn: fr.fn.Name}
	}
	if bits, ok := ir.Eval(in.Op, in.Ty, in.Args[0].Type(), a0, a1); ok {
		return bits, nil
	}
	return 0, &Trap{Kind: TrapDivZero, Dyn: m.dyn, Fn: fr.fn.Name}
}

func b2f(b uint64) float64 { return math.Float64frombits(b) }
func f2b(f float64) uint64 { return math.Float64bits(f) }

func maxi(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
