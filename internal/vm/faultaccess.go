package vm

// Fault-injection surface. Every fault model is a FaultHook — register and
// memory flips, bursts, stuck-at and intermittent cells, and branch-target
// redirects: both engines fire it from their per-instruction event point
// (fireHook), and it reads and corrupts the machine through the accessors
// below. They mutate architectural state only — register bits, memory
// words, the successor of the branch being fired at — never timing or
// bookkeeping, so the only observable difference a faulty run carries is
// the corruption itself. The state accessors work the same on a machine
// parked at that point with SuspendAtDyn: a hook fired in-engine and the
// same mutation applied to the parked machine before it resumes give
// bit-identical runs. RedirectBranch acts only from inside a hook.

import "repro/internal/ir"

// fireHook runs the run's fault hook on fr, the executing frame, at in,
// the instruction about to execute, with m.dyn at in, and re-reads its
// next due dyn.
func (m *Machine) fireHook(fr *frame, in *ir.Instr) {
	m.firing, m.firingIn = fr, in
	m.opts.Hook.Fire(m)
	m.firing, m.firingIn = nil, nil
	m.hookAt = m.opts.Hook.Next()
}

// RedirectBranch, called by a hook firing at a br or jmp, corrupts that
// branch's target: the branch still issues and trains the predictor on its
// real condition, then continues at the block of the executing function
// that pick chooses among its nBlocks — the control-flow fault class the
// paper defers to signature-based checking (§IV-C). At any other
// instruction, or outside a hook, it returns false without calling pick.
func (m *Machine) RedirectBranch(pick func(nBlocks int) int) bool {
	if m.firingIn == nil || m.firingIn.Op != ir.OpBr && m.firingIn.Op != ir.OpJmp {
		return false
	}
	blocks := m.firing.fn.Blocks
	m.redirect = blocks[pick(len(blocks))]
	return true
}

// Suspended reports whether the machine holds a suspended in-flight run
// (its last Run returned TrapSuspended, or it was set with Restore or
// RestoreFrom, and no Run, Reset or Restore has consumed that state since).
func (m *Machine) Suspended() bool { return len(m.susp) > 0 }

// faultFrame is the innermost activation: the frame a hook is firing on, or
// the suspended chain's innermost level; nil on a machine doing neither.
func (m *Machine) faultFrame() *frame {
	if m.firing != nil {
		return m.firing
	}
	if len(m.susp) > 0 {
		return m.susp[0].fr
	}
	return nil
}

// LiveRegCount is the number of written register slots in the innermost
// activation (faultFrame), dead values included: the register population
// a fault samples from. 0 when the machine is neither firing a hook nor
// suspended.
func (m *Machine) LiveRegCount() int {
	if fr := m.faultFrame(); fr != nil {
		return len(fr.written)
	}
	return 0
}

// LiveReg returns the bits and static type of written register i (in
// definition order) of the innermost activation.
func (m *Machine) LiveReg(i int) (bits uint64, ty ir.Type) {
	fr := m.faultFrame()
	slot := int(fr.written[i])
	return fr.regs[slot].bits, m.info[fr.fn].slotTypes[slot]
}

// SetLiveReg overwrites the bits of written register i of the innermost
// activation, leaving the slot's readiness (timing) untouched.
func (m *Machine) SetLiveReg(i int, bits uint64) {
	fr := m.faultFrame()
	fr.regs[int(fr.written[i])].bits = bits
}

// MemUsed is the extent of the architecturally visible memory image: word
// addresses [1, MemUsed()) hold the globals and the live stack. Address 0
// is the null guard and never part of the image.
func (m *Machine) MemUsed() uint64 { return m.sp }

// MemWord reads one memory word.
func (m *Machine) MemWord(addr uint64) uint64 { return m.mem[addr] }

// SetMemWord overwrites one memory word.
func (m *Machine) SetMemWord(addr, bits uint64) {
	m.mem[addr] = bits
	m.wrote(addr)
}
