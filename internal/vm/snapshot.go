package vm

// Machine snapshotting for the fast engine. A run paused mid-flight via
// RunOptions.SuspendAtDyn can be captured as an immutable Snapshot and later
// re-armed — on the same machine or on any other machine built over the same
// module revision and configuration — with Restore; the next Run then
// continues from the suspend point. The fault campaign uses this to execute
// each injection trial as restore-nearest-golden-snapshot + run-forward
// instead of re-executing the golden prefix from dyn 0.
//
// The suspend point is the same program point at which a register fault
// would be injected: the first non-phi instruction whose pre-increment
// dynamic index reaches SuspendAtDyn. Because no fault-eligible instruction
// lies between the requested index and the actual suspension, a snapshot
// requested at S serves every trial whose effective trigger index is >= S
// bit-identically (see internal/fault's checkpoint scheduler).
//
// What is captured: the full memory image (garbage words above sp are
// semantically visible — alloca does not zero its frame), the stack pointer,
// the dynamic instruction counter, the complete timing-model state (issue
// cursor, slot, completion horizon, cache tags, branch predictor), opcode
// accounting (opCounts plus the per-region entry counters), check state
// (checkFails, perCheckFails, laxPhis), and the suspended call chain with a
// register-file image per activation. Scratch buffers (phiScratch,
// callScratch) are dead at every suspend point and are not captured.

import (
	"fmt"

	"repro/internal/ir"
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

// snapFrame is the immutable image of one suspended activation record. Only
// defined slots are stored: every other register slot of a live frame is
// zero (getFrame's pooling invariant), and constant extension slots are
// rebuilt from the lowering.
type snapFrame struct {
	ef      *engFunc
	pc      int
	entrySP uint64
	live    []int32 // slots defined at suspension, in definition order
	regs    []reg   // regs[i] is the image of slot live[i]
}

// Snapshot is an immutable copy of a suspended machine's complete execution
// state. It can be shared across goroutines and restored any number of
// times; Restore only copies out of it.
type Snapshot struct {
	eng *engModule // identity guard: restoring requires the same lowering

	dyn     int64
	sp      uint64
	laxPhis bool
	mem     []uint64

	cursor    int64
	slotUsed  int
	maxDone   int64
	cacheTags []uint64
	predictor []uint8

	opCounts      [ir.NumOps]int64
	regionCounts  [][]int64
	checkFails    int64
	perCheckFails map[int]int64

	levels []snapFrame // suspended call chain, innermost-first
}

// Dyn returns the dynamic-instruction index at which the snapshot was taken
// (the index of the next instruction to execute on resume).
func (s *Snapshot) Dyn() int64 { return s.dyn }

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
	s := &Snapshot{
		eng:        m.eng,
		dyn:        m.dyn,
		sp:         m.sp,
		laxPhis:    m.laxPhis,
		mem:        append([]uint64(nil), m.mem...),
		cursor:     m.timing.cursor,
		slotUsed:   m.timing.slotUsed,
		maxDone:    m.timing.maxDone,
		cacheTags:  append([]uint64(nil), m.timing.cacheTags...),
		predictor:  append([]uint8(nil), m.timing.predictor...),
		opCounts:   m.opCounts,
		checkFails: m.checkFails,
		levels:     make([]snapFrame, len(m.susp)),
	}
	s.regionCounts = make([][]int64, len(m.regionCounts))
	for i, rc := range m.regionCounts {
		s.regionCounts[i] = append([]int64(nil), rc...)
	}
	if m.perCheckFails != nil {
		s.perCheckFails = make(map[int]int64, len(m.perCheckFails))
		for id, n := range m.perCheckFails {
			s.perCheckFails[id] = n
		}
	}
	for i, l := range m.susp {
		sf := snapFrame{
			ef:      l.ef,
			pc:      l.pc,
			entrySP: l.fr.entrySP,
			live:    append([]int32(nil), l.fr.live...),
			regs:    make([]reg, len(l.fr.live)),
		}
		for j, slot := range l.fr.live {
			sf.regs[j] = l.fr.regs[slot]
		}
		s.levels[i] = sf
	}
	return s, nil
}

// Restore replaces the machine's execution state with the snapshot's,
// leaving it suspended at the snapshot's suspend point: the next Run
// continues from there. The machine must run the fast engine over the same
// module revision and with the same memory/timing geometry as the machine
// that produced the snapshot. The snapshot itself is never mutated.
func (m *Machine) Restore(s *Snapshot) error {
	if m.eng == nil {
		return fmt.Errorf("vm: snapshots require the fast engine")
	}
	if s.eng != m.eng {
		return fmt.Errorf("vm: snapshot belongs to a different module revision")
	}
	if len(s.mem) != len(m.mem) ||
		len(s.cacheTags) != len(m.timing.cacheTags) ||
		len(s.predictor) != len(m.timing.predictor) {
		return fmt.Errorf("vm: snapshot machine geometry differs")
	}
	// Drop any previous suspended state before overwriting it; the frames
	// about to be rebuilt reuse the pool slots these release.
	for _, l := range m.susp {
		m.putFrame(l.ef, l.fr)
	}
	m.susp = m.susp[:0]
	m.resuming = nil
	m.resumePos = -1

	copy(m.mem, s.mem)
	m.sp = s.sp
	m.dyn = s.dyn
	m.laxPhis = s.laxPhis
	m.checkFails = s.checkFails
	m.perCheckFails = nil
	if s.perCheckFails != nil {
		m.perCheckFails = make(map[int]int64, len(s.perCheckFails))
		for id, n := range s.perCheckFails {
			m.perCheckFails[id] = n
		}
	}
	m.opCounts = s.opCounts
	for i, rc := range s.regionCounts {
		copy(m.regionCounts[i], rc)
	}
	tm := m.timing
	tm.cursor, tm.slotUsed, tm.maxDone = s.cursor, s.slotUsed, s.maxDone
	copy(tm.cacheTags, s.cacheTags)
	copy(tm.predictor, s.predictor)

	for _, sf := range s.levels {
		fr := m.getFrame(sf.ef)
		fr.entrySP = sf.entrySP
		for j, slot := range sf.live {
			fr.regs[slot] = sf.regs[j]
			fr.defined[slot] = true
		}
		fr.live = append(fr.live[:0], sf.live...)
		m.susp = append(m.susp, suspLevel{ef: sf.ef, fr: fr, pc: sf.pc})
	}
	return nil
}

// RestoreFrom re-arms m with the suspended execution state of src — the
// machine-to-machine analogue of src.Snapshot() followed by m.Restore,
// without materializing the intermediate immutable copy (one memory copy
// instead of two, no per-clone allocations). src must be suspended on the
// fast engine over the same module revision and geometry; it is not mutated
// and stays suspended, so one source can seed any number of clones (the
// fault campaign's golden cursor seeds every trial of a bin this way). m is
// left suspended at src's suspend point: its next Run continues from there,
// bit-identically to a run resumed on src itself.
func (m *Machine) RestoreFrom(src *Machine) error {
	if m == src {
		return fmt.Errorf("vm: RestoreFrom onto the source machine")
	}
	if m.eng == nil || src.eng == nil {
		return fmt.Errorf("vm: RestoreFrom requires the fast engine")
	}
	if src.eng != m.eng {
		return fmt.Errorf("vm: source machine belongs to a different module revision")
	}
	if len(src.susp) == 0 {
		return fmt.Errorf("vm: source machine is not suspended (Run must return a %v trap first)", TrapSuspended)
	}
	if len(src.mem) != len(m.mem) ||
		len(src.timing.cacheTags) != len(m.timing.cacheTags) ||
		len(src.timing.predictor) != len(m.timing.predictor) {
		return fmt.Errorf("vm: source machine geometry differs")
	}
	// Mirror Restore field for field (snapshot.go documents the set); the
	// equivalence of that set to an uninterrupted run is established by the
	// snapshot suite, so this clone inherits it.
	for _, l := range m.susp {
		m.putFrame(l.ef, l.fr)
	}
	m.susp = m.susp[:0]
	m.resuming = nil
	m.resumePos = -1

	copy(m.mem, src.mem)
	m.sp = src.sp
	m.dyn = src.dyn
	m.laxPhis = src.laxPhis
	m.checkFails = src.checkFails
	m.perCheckFails = nil
	if src.perCheckFails != nil {
		m.perCheckFails = make(map[int]int64, len(src.perCheckFails))
		for id, n := range src.perCheckFails {
			m.perCheckFails[id] = n
		}
	}
	m.opCounts = src.opCounts
	for i, rc := range src.regionCounts {
		copy(m.regionCounts[i], rc)
	}
	tm, st := m.timing, src.timing
	tm.cursor, tm.slotUsed, tm.maxDone = st.cursor, st.slotUsed, st.maxDone
	copy(tm.cacheTags, st.cacheTags)
	copy(tm.predictor, st.predictor)

	for _, l := range src.susp {
		fr := m.getFrame(l.ef)
		fr.entrySP = l.fr.entrySP
		for _, slot := range l.fr.live {
			fr.regs[slot] = l.fr.regs[slot]
			fr.defined[slot] = true
		}
		fr.live = append(fr.live[:0], l.fr.live...)
		m.susp = append(m.susp, suspLevel{ef: l.ef, fr: fr, pc: l.pc})
	}
	return nil
}

// MatchesSnapshot reports whether the machine's suspended execution state is
// bit-identical to the snapshot's, over the exact field set Snapshot
// captures — memory, stack pointer, dynamic counter, suspended call chain
// with register images, timing-model state, and every accounting counter.
// When it returns true for a machine whose fault plan has already fired
// (FaultPlan.Injected), the machine's future execution is deterministically
// identical to that of the run the snapshot was taken from; the fault
// campaign uses this to short-circuit trials that have re-converged to the
// golden state. The comparison is conservative: a live set listed in a
// different definition order reports false even when the register files
// agree, because a false negative only costs the caller the shortcut, never
// correctness.
func (m *Machine) MatchesSnapshot(s *Snapshot) bool {
	if m.eng == nil || s.eng != m.eng || len(m.susp) == 0 {
		return false
	}
	if m.dyn != s.dyn || m.sp != s.sp || m.laxPhis != s.laxPhis ||
		m.checkFails != s.checkFails || m.opCounts != s.opCounts {
		return false
	}
	tm := m.timing
	if tm.cursor != s.cursor || tm.slotUsed != s.slotUsed || tm.maxDone != s.maxDone {
		return false
	}
	if len(m.susp) != len(s.levels) {
		return false
	}
	for i, sf := range s.levels {
		l := m.susp[i]
		if l.ef != sf.ef || l.pc != sf.pc || l.fr.entrySP != sf.entrySP ||
			len(l.fr.live) != len(sf.live) {
			return false
		}
		for j, slot := range sf.live {
			if l.fr.live[j] != slot || l.fr.regs[slot] != sf.regs[j] {
				return false
			}
		}
	}
	if len(m.perCheckFails) != len(s.perCheckFails) {
		return false
	}
	for id, n := range s.perCheckFails {
		if m.perCheckFails[id] != n {
			return false
		}
	}
	for i, rc := range s.regionCounts {
		for j, n := range rc {
			if m.regionCounts[i][j] != n {
				return false
			}
		}
	}
	// Geometry always matches when the engines match; the cheap length
	// guards keep the loops in-bounds regardless.
	if len(s.cacheTags) != len(tm.cacheTags) || len(s.predictor) != len(tm.predictor) ||
		len(s.mem) != len(m.mem) {
		return false
	}
	for i, tag := range s.cacheTags {
		if tm.cacheTags[i] != tag {
			return false
		}
	}
	for i, p := range s.predictor {
		if tm.predictor[i] != p {
			return false
		}
	}
	for i, w := range s.mem {
		if m.mem[i] != w {
			return false
		}
	}
	return true
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
// frame ownership returns to m.susp (via execLoopFrom) rather than the pool.
func (m *Machine) execResumeNext(depth int) (uint64, *Trap) {
	lvl := m.resuming[m.resumePos]
	m.resumePos--
	ret, trap := m.execLoopFrom(lvl.ef, lvl.fr, depth, lvl.pc)
	if trap != nil && trap.Kind == TrapSuspended {
		return 0, trap
	}
	m.sp = lvl.fr.entrySP
	m.putFrame(lvl.ef, lvl.fr)
	return ret, trap
}
