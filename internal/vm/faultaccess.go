package vm

// External fault-injection surface. The fault package's suspend-injected
// models (memory flips, multi-bit bursts, stuck-at and intermittent faults)
// park a machine at their injection point via RunOptions.SuspendAtDyn and
// corrupt its state through these accessors, then resume. They mutate
// architectural state only — register bits and memory words — never timing
// or bookkeeping, mirroring exactly what the in-engine register injector
// touches: the suspend/resume chain is bit-identical to an uninterrupted
// run, so the only observable difference such a trial carries is the
// corruption itself.

import "repro/internal/ir"

// Suspended reports whether the machine holds a suspended in-flight run
// (its last Run returned TrapSuspended, or it was set with Restore or
// RestoreFrom, and no Run, Reset or Restore has consumed that state since).
func (m *Machine) Suspended() bool { return len(m.susp) > 0 }

// LiveRegCount is the number of written register slots in the innermost
// suspended activation — the same population the in-engine register
// injector samples from, dead values included. 0 when the machine is not
// suspended.
func (m *Machine) LiveRegCount() int {
	if len(m.susp) == 0 {
		return 0
	}
	return len(m.susp[0].fr.written)
}

// LiveReg returns the bits and static type of written register i (in
// definition order) of the innermost suspended activation.
func (m *Machine) LiveReg(i int) (bits uint64, ty ir.Type) {
	fr := m.susp[0].fr
	slot := int(fr.written[i])
	return fr.regs[slot].bits, m.info[fr.fn].slotTypes[slot]
}

// SetLiveReg overwrites the bits of written register i of the innermost
// suspended activation, leaving the slot's readiness (timing) untouched —
// the same mutation the in-engine injector performs.
func (m *Machine) SetLiveReg(i int, bits uint64) {
	fr := m.susp[0].fr
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
