package vm

// Machine snapshotting for the fast engine. A run paused mid-flight via
// RunOptions.SuspendAtDyn can be captured as an immutable Snapshot and later
// re-armed — on the same machine or on any other machine built over the same
// module revision and configuration — with Restore; the next Run then
// continues from the suspend point. The fault campaign uses this to execute
// each injection trial as restore-nearest-golden-snapshot + run-forward
// instead of re-executing the golden prefix from dyn 0.
//
// The suspend point is the same program point at which a fault hook fires
// (FaultHook): the first non-phi instruction whose pre-increment dynamic
// index reaches SuspendAtDyn. Because no fault-eligible instruction
// lies between the requested index and the actual suspension, a snapshot
// requested at S serves every trial whose fault hook is first due at an
// index >= S bit-identically (see internal/fault's checkpoint scheduler).
//
// What is captured is the machine state RestoreFrom copies and matches
// compares (the one body behind MatchesSnapshot, MatchesLiveState and
// MatchesLiveMemory) — the only two places that list it: the written
// memory image mem[:memHi] (every word above it is zero, so it stands for
// the whole memory; garbage words above sp are semantically visible —
// alloca does not zero its frame — and lie below memHi because a store put
// them there), the stack pointer, the dynamic instruction
// counter, the complete timing-model state (issue cursor, slot, completion
// horizon, cache tags, branch predictor), check state (checkFails,
// perCheckFails, laxPhis), and the suspended call chain with a register file
// per activation. Scratch buffers (phiScratch, callScratch) are dead at every
// suspend point and are not captured. Beside the state, a snapshot keeps
// each level's live slots — the ones the rest of the run can still read —
// for MatchesLiveState. Its memory counterpart is not per snapshot: a
// golden run records AccessMasks over its whole ladder (memlive.go), and
// MatchesLiveMemory reads them at the snapshot's rung.

import (
	"fmt"
	"maps"
	"slices"
)

// suspLevel is one activation of a suspended call chain. While a
// TrapSuspended unwinds the Go stack through execLoop/execCall, each level
// appends itself, so the chain ends up innermost-first. The frames stay
// owned by the machine (not its pools) until the run is resumed or Reset.
type suspLevel struct {
	ef *engFunc
	fr *frame
	pc int
}

// Snapshot is an immutable copy of a suspended machine's complete execution
// state: a parked clone, filled by RestoreFrom and never run, reset or
// restored onto. It can be shared across goroutines and restored any number
// of times; Restore only reads from it.
type Snapshot struct {
	m *Machine
	// live[i] lists the slots of suspended level i (innermost first) that
	// the rest of the run can still read (engFunc.liveSlots); nil when the
	// level's pc has no IR instruction to derive them from.
	live [][]int32
}

// Dyn returns the dynamic-instruction index at which the snapshot was taken
// (the index of the next instruction to execute on resume).
func (s *Snapshot) Dyn() int64 { return s.m.dyn }

// Snapshot captures the machine's suspended execution state. The machine
// must be suspended: its last Run must have returned a TrapSuspended result
// that has not been consumed by another Run, Reset, or Restore.
func (m *Machine) Snapshot() (*Snapshot, error) {
	if m.eng == nil {
		return nil, fmt.Errorf("vm: snapshots require the fast engine")
	}
	if len(m.susp) == 0 {
		return nil, fmt.Errorf("vm: machine is not suspended (Run must return a %v trap first)", TrapSuspended)
	}
	// Only what RestoreFrom writes is allocated: the clone never runs, so it
	// needs no inputs, globals layout or Reset pass, and of memory only the
	// written image.
	c := &Machine{
		eng:      m.eng,
		mem:      make([]uint64, m.memHi),
		memWords: m.memWords,
		timing:   newTiming(m.cfg.Timing),
		pools:    make([][]*frame, len(m.eng.funcs)),
	}
	if err := c.RestoreFrom(m); err != nil {
		return nil, err
	}
	live := make([][]int32, len(c.susp))
	for i, l := range c.susp {
		live[i] = l.ef.liveSlots(l.pc, i == 0)
	}
	return &Snapshot{m: c, live: live}, nil
}

// SnapshotZeroChecks is Snapshot with the check counters (checkFails,
// perCheckFails) recorded as zero. A run that counts check failures
// (RunOptions.CountChecks) and one that disables every check failing in it
// (RunOptions.DisabledChecks) execute identically — both continue past a
// failing check — and differ only in those counters, so this snapshot of
// the counting run is bit-identical to a snapshot the disabling run takes
// at the same point. The fault campaign builds its snapshot ladder from its
// counting golden run this way.
func (m *Machine) SnapshotZeroChecks() (*Snapshot, error) {
	s, err := m.Snapshot()
	if err != nil {
		return nil, err
	}
	s.m.checkFails, s.m.perCheckFails = 0, nil
	return s, nil
}

// Restore replaces the machine's execution state with the snapshot's,
// leaving it suspended at the snapshot's suspend point: the next Run
// continues from there. The machine must run the fast engine over the same
// module revision and with the same memory/timing geometry as the machine
// that produced the snapshot. The snapshot itself is never mutated.
func (m *Machine) Restore(s *Snapshot) error {
	return m.RestoreFrom(s.m)
}

// RestoreFrom re-arms m with the suspended execution state of src, without
// materializing an intermediate Snapshot. src must be suspended on the fast
// engine over the same module revision and geometry; it is not mutated and
// stays suspended, so one source can seed any number of clones (the fault
// campaign's golden cursor seeds every trial of a bin this way). m is left
// suspended at src's suspend point: its next Run continues from there,
// bit-identically to a run resumed on src itself.
//
// The fields copied here are the machine's complete execution state; this
// body and matches are the only two places that list them.
func (m *Machine) RestoreFrom(src *Machine) error {
	if m == src {
		return fmt.Errorf("vm: RestoreFrom onto the source machine")
	}
	if m.eng == nil || src.eng == nil {
		return fmt.Errorf("vm: snapshots require the fast engine")
	}
	if src.eng != m.eng {
		return fmt.Errorf("vm: source machine belongs to a different module revision")
	}
	if len(src.susp) == 0 {
		return fmt.Errorf("vm: source machine is not suspended (Run must return a %v trap first)", TrapSuspended)
	}
	if src.memWords != m.memWords ||
		len(src.timing.cacheTags) != len(m.timing.cacheTags) ||
		len(src.timing.predictor) != len(m.timing.predictor) {
		return fmt.Errorf("vm: source machine geometry differs")
	}
	// Drop any previous suspended state before overwriting it; the frames
	// about to be rebuilt reuse the pool slots these release.
	for _, l := range m.susp {
		m.putFrame(l.ef, l.fr)
	}
	m.susp = m.susp[:0]
	m.resuming = nil
	m.resumePos = -1

	// Words in [src.memHi, m.memHi) are stale writes of m's own past; every
	// word above both bounds is zero on both sides.
	copy(m.mem[:src.memHi], src.mem[:src.memHi])
	if m.memHi > src.memHi {
		clear(m.mem[src.memHi:m.memHi])
	}
	m.memHi = src.memHi
	m.sp = src.sp
	m.dyn = src.dyn
	m.laxPhis = src.laxPhis
	m.checkFails = src.checkFails
	m.perCheckFails = maps.Clone(src.perCheckFails)
	tm, st := m.timing, src.timing
	tm.cursor, tm.slotUsed, tm.maxDone = st.cursor, st.slotUsed, st.maxDone
	copy(tm.cacheTags, st.cacheTags)
	copy(tm.predictor, st.predictor)

	// Only written slots are copied: every other register slot of a live frame
	// is zero (getFrame's pooling invariant), and constant extension slots
	// are pre-filled by getFrame.
	for _, l := range src.susp {
		fr := m.getFrame(l.ef)
		fr.entrySP = l.fr.entrySP
		for _, slot := range l.fr.written {
			fr.regs[slot] = l.fr.regs[slot]
			fr.defined[slot] = true
		}
		fr.written = append(fr.written[:0], l.fr.written...)
		m.susp = append(m.susp, suspLevel{ef: l.ef, fr: fr, pc: l.pc})
	}
	return nil
}

// MatchesSnapshot reports whether the machine's suspended execution state is
// bit-identical to the snapshot's, over the exact field set RestoreFrom
// copies — memory, stack pointer, dynamic counter, suspended call chain with
// register images, timing-model state, and the check counters. It is the
// strict reference: the fused-versus-unfused and restore round-trip oracles
// hold machines to it. The comparison is conservative: a written-slot list
// in a different definition order reports false even when the register
// files agree. The fault campaign's convergence test is the weaker
// MatchesLiveState.
func (m *Machine) MatchesSnapshot(s *Snapshot) bool {
	return m.matches(s, nil, nil)
}

// MatchesLiveState is MatchesSnapshot restricted, in each suspended level's
// register file, to the slots the rest of the run can still read: value,
// ready time and defined flag of those slots are compared, and every other
// field exactly as MatchesSnapshot does (a level whose pc has no IR
// instruction compares all its written slots). No operand, phi edge, call
// argument, return or check reads a slot that is dead at the suspend point
// before it is redefined, and ready times are read only through operands,
// so a machine that matches has the same future — trap, output,
// dyn and cycle count — as the run the snapshot was taken from, provided
// nothing else reads the written-slot lists: no fault injection may be
// pending. The fault campaign uses it to end a trial whose fault has fired
// and whose live state has re-converged to golden; MatchesLiveMemory
// relaxes its memory compare the same way.
func (m *Machine) MatchesLiveState(s *Snapshot) bool {
	return m.matches(s, s.live, nil)
}

// MatchesLiveMemory is MatchesLiveState with memory compared on liveness
// too: s must be rung k of the ladder a's golden run recorded, and a word
// that differs from the snapshot's is tolerated when a proves it dead at
// rung k — the golden run's next access of it is a store, or there is none
// and it lies outside the output global. forced, when nonzero, is a word a
// pending fault keeps re-forcing after the rung: it is tolerated only
// outside the output and when the golden run never loads it again, whether
// or not it differs now. (Address 0 is the null guard, so 0 names no word.) A matching machine has the
// same future as the golden run in trap, dyn, cycles and output: every
// load it executes reads what golden's reads, and the words it may still
// hold differently are overwritten before any read, or never read at all.
// The same proviso holds as for MatchesLiveState, except that a pending
// fault may keep forcing the forced word.
func (m *Machine) MatchesLiveMemory(s *Snapshot, a *AccessMasks, k int, forced uint64) bool {
	if k < 0 || k >= int(a.rungs) {
		return false
	}
	r := &memRule{a: a, k: uint8(k), forced: forced}
	// The forced word must qualify even where it matches now: a later
	// re-force can make it differ.
	if forced != 0 && !r.dead(forced) {
		return false
	}
	return m.matches(s, s.live, r)
}

// memRule is the memory tolerance of MatchesLiveMemory; a nil rule
// tolerates no difference.
type memRule struct {
	a      *AccessMasks
	k      uint8
	forced uint64
}

func (r *memRule) dead(w uint64) bool { return r != nil && r.a.dead(w, r.k, r.forced) }

// matches is the comparison body of the predicates; a nil live compares
// every written slot of every level, a nil mem every memory word.
func (m *Machine) matches(s *Snapshot, live [][]int32, mem *memRule) bool {
	o := s.m
	if m.eng == nil || o.eng != m.eng || len(m.susp) == 0 {
		return false
	}
	if m.dyn != o.dyn || m.sp != o.sp || m.laxPhis != o.laxPhis ||
		m.checkFails != o.checkFails || m.memWords != o.memWords {
		return false
	}
	tm, to := m.timing, o.timing
	if tm.cursor != to.cursor || tm.slotUsed != to.slotUsed || tm.maxDone != to.maxDone {
		return false
	}
	if len(m.susp) != len(o.susp) {
		return false
	}
	for i, ol := range o.susp {
		l := m.susp[i]
		if l.ef != ol.ef || l.pc != ol.pc || l.fr.entrySP != ol.fr.entrySP {
			return false
		}
		if live != nil && live[i] != nil {
			for _, slot := range live[i] {
				if l.fr.regs[slot] != ol.fr.regs[slot] || l.fr.defined[slot] != ol.fr.defined[slot] {
					return false
				}
			}
			continue
		}
		if len(l.fr.written) != len(ol.fr.written) {
			return false
		}
		for j, slot := range ol.fr.written {
			if l.fr.written[j] != slot || l.fr.regs[slot] != ol.fr.regs[slot] {
				return false
			}
		}
	}
	return maps.Equal(m.perCheckFails, o.perCheckFails) &&
		slices.Equal(tm.cacheTags, to.cacheTags) &&
		slices.Equal(tm.predictor, to.predictor) &&
		memEqual(m, o, mem)
}

// memEqual compares two machines' memory images: the words below both
// memHi bounds pairwise, and the words between the bounds against the zero
// every word above a bound holds. A word that differs is tolerated when
// the rule calls it dead.
func memEqual(a, b *Machine, rule *memRule) bool {
	if a.memHi > b.memHi {
		a, b = b, a
	}
	am, bm := a.mem[:a.memHi], b.mem[:a.memHi]
	for w := range am {
		if am[w] != bm[w] && !rule.dead(uint64(w)) {
			return false
		}
	}
	for w := a.memHi; w < b.memHi; w++ {
		if b.mem[w] != 0 && !rule.dead(w) {
			return false
		}
	}
	return true
}

// CheckMemHi verifies the invariant the memory bound stands for — every
// word at or above it is zero — and reports the first word that breaks it.
// Differential testing and the vm tests call it after runs and restores.
func (m *Machine) CheckMemHi() error {
	for a := m.memHi; a < uint64(len(m.mem)); a++ {
		if m.mem[a] != 0 {
			return fmt.Errorf("vm: mem[%d] = %#x at or above the written-memory bound %d", a, m.mem[a], m.memHi)
		}
	}
	return nil
}

// resumeExec continues a suspended (or freshly restored) run: the captured
// call chain is rebuilt on the Go stack, outermost level first, and
// execution rejoins the dispatch loop at the suspend point. Called by Run
// when the machine holds suspended state.
func (m *Machine) resumeExec() (uint64, *Trap) {
	m.resuming = m.susp
	m.susp = nil
	m.resumePos = len(m.resuming) - 1
	ret, trap := m.execResumeNext(0)
	m.resuming = nil
	m.resumePos = -1
	return ret, trap
}

// execResumeNext re-enters the next pending level of the suspended chain:
// the counterpart of execCall whose activation record and starting pc come
// from the captured state instead of a fresh frame. On a new suspension the
// frame ownership returns to m.susp (via execLoop) rather than the pool.
func (m *Machine) execResumeNext(depth int) (uint64, *Trap) {
	lvl := m.resuming[m.resumePos]
	m.resumePos--
	ret, trap := m.execLoop(lvl.ef, lvl.fr, depth, lvl.pc)
	if trap != nil && trap.Kind == TrapSuspended {
		return 0, trap
	}
	m.sp = lvl.fr.entrySP
	m.putFrame(lvl.ef, lvl.fr)
	return ret, trap
}
