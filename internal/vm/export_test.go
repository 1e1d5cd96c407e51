package vm

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ir"
)

// RegFlip is the tests' register-flip fault hook, the paper's model: at the
// first fault-eligible instruction at or past At it flips bit Bit() of the
// written register Slot(n) picks, drawing the slot first, and records what
// it hit. A frame with no written register defers the flip, undrawn, to the
// next instruction.
type RegFlip struct {
	At   int64
	Slot func(n int) int
	Bit  func() int
	FaultRecord
}

func (f *RegFlip) Next() int64 {
	if f.Injected {
		return math.MaxInt64
	}
	return f.At
}

func (f *RegFlip) Fire(m *Machine) {
	n := m.LiveRegCount()
	if n == 0 {
		return
	}
	i := f.Slot(n)
	old, ty := m.LiveReg(i)
	f.Old, f.New = old, old^1<<uint(f.Bit())
	m.SetLiveReg(i, f.New)
	f.Injected = true
	f.RelChange = RelChange(ty, f.Old, f.New)
}

// BranchHook is the tests' branch-target fault hook: due at At-1, it walks
// forward to the first br or jmp and redirects it to the block Pick
// chooses — the first branch whose post-increment dyn reaches At.
type BranchHook struct {
	At       int64
	Pick     func(nBlocks int) int
	Injected bool
}

func (h *BranchHook) Next() int64 {
	if h.Injected {
		return math.MaxInt64
	}
	return max(h.At-1, 0)
}

func (h *BranchHook) Fire(m *Machine) { h.Injected = m.RedirectBranch(h.Pick) }

// InjectAt returns run options that carry one fault due at trigger, drawn
// from r: a RegFlip hook, or with branch set a BranchHook.
func InjectAt(branch bool, trigger int64, r *rand.Rand) RunOptions {
	if branch {
		return RunOptions{Hook: &BranchHook{At: trigger, Pick: r.Intn}}
	}
	return RunOptions{Hook: &RegFlip{At: trigger, Slot: r.Intn, Bit: func() int { return r.Intn(64) }}}
}

// FaultRecord is what the fault of a run's options left behind, comparable
// across runs: whether it fired and, for a RegFlip, what it hit.
type FaultRecord struct {
	Injected  bool
	Old, New  uint64
	RelChange float64
}

// RecordOf reads the FaultRecord of opts after its run.
func RecordOf(opts RunOptions) FaultRecord {
	switch h := opts.Hook.(type) {
	case *RegFlip:
		return h.FaultRecord
	case *BranchHook:
		return FaultRecord{Injected: h.Injected}
	}
	return FaultRecord{}
}

// fusePatternNames names every fused-pair pattern, indexed by fuseOp.
var fusePatternNames = [...]string{
	fAddAdd: "AddAdd", fAddSub: "AddSub", fAddLt: "AddLt",
	fMulAdd: "MulAdd", fMulSub: "MulSub", fMulMul: "MulMul",
	fSubAdd: "SubAdd", fSubMul: "SubMul",
	fAddAddF: "AddAddF", fMulAddF: "MulAddF", fMulMulF: "MulMulF",
	fAddLoad: "AddLoad", fLoadSub: "LoadSub", fLoadMul: "LoadMul",
	fCmpBrI: "CmpBrI", fAddJmp: "AddJmp", fJmpPhi: "JmpPhi",
	fCmpCheckJmp: "CmpCheckJmp",
}

// FusePatterns lists the name of every fused-pair pattern in table order.
func FusePatterns() []string { return fusePatternNames[fNone+1:] }

// FusedHeads maps each instruction that heads a fused pair in m's lowered
// module to its pattern's name.
func FusedHeads(m *Machine) map[*ir.Instr]string {
	heads := map[*ir.Instr]string{}
	for _, ef := range m.eng.funcs {
		for pc := range ef.code {
			f := ef.code[pc].fop
			if f == fNone {
				continue
			}
			if int(f) >= len(fusePatternNames) || fusePatternNames[f] == "" {
				panic(fmt.Sprintf("vm: fused pattern %d has no name", f))
			}
			heads[ef.ins[pc]] = fusePatternNames[f]
		}
	}
	return heads
}

// MemHi returns the machine's written-memory bound.
func MemHi(m *Machine) uint64 { return m.memHi }

// SnapshotMemHi returns the written-memory bound a snapshot recorded.
func SnapshotMemHi(s *Snapshot) uint64 { return s.m.memHi }

// SnapshotLive returns the live slots a snapshot recorded for each level of
// its suspended chain, innermost first; a nil level compares every written
// slot.
func SnapshotLive(s *Snapshot) [][]int32 { return s.live }

// SetSnapshotLive replaces a snapshot's live slots, so a test can plant a
// wrong analysis.
func SetSnapshotLive(s *Snapshot, live [][]int32) { s.live = live }

// WrittenSlots returns the written-slot list of each level of m's
// suspended chain, innermost first.
func WrittenSlots(m *Machine) [][]int32 {
	out := make([][]int32, len(m.susp))
	for i, l := range m.susp {
		out[i] = l.fr.written
	}
	return out
}

// CorruptSlot complements every bit of a written slot in level i of m's
// suspended chain and delays its ready time by delay cycles.
func CorruptSlot(m *Machine, level int, slot int32, delay int64) {
	r := &m.susp[level].fr.regs[slot]
	r.bits = ^r.bits
	r.ready += delay
}

// PseudoOpLiveSlots counts the pcs of m's lowered module that hold no
// ordinary IR instruction (pseudo-ops and phi edges), and how many of them
// liveSlots answered for instead of falling back to every written slot.
func PseudoOpLiveSlots(m *Machine) (pcs, answered int) {
	for _, ef := range m.eng.funcs {
		for pc, in := range ef.ins {
			if in != nil && in.Op != ir.OpPhi {
				continue
			}
			pcs++
			for _, inner := range []bool{true, false} {
				if ef.liveSlots(pc, inner) != nil {
					answered++
				}
			}
		}
	}
	return pcs, answered
}

// MaskDead reports whether a calls word w dead at rung k, with no forced
// word.
func MaskDead(a *AccessMasks, w uint64, k int) bool { return a.dead(w, uint8(k), 0) }

// MaskWords is the number of words a covers.
func MaskWords(a *AccessMasks) int { return len(a.words) }

// LoadedNext reports whether a records word w's first access after rung k
// as a load.
func LoadedNext(a *AccessMasks, w uint64, k int) bool {
	return w < uint64(len(a.words)) && a.words[w].undet > uint8(k) && a.words[w].loadNext&(1<<k) != 0
}

// ClearLoadNext plants a wrong record: bit k of word w's loadNext cleared.
func ClearLoadNext(a *AccessMasks, w uint64, k int) { a.words[w].loadNext &^= 1 << k }

// GlobalSpan returns the word range [base, base+size) of global name.
func GlobalSpan(m *Machine, name string) (base, size uint64) {
	return m.globalBase[name], uint64(m.mod.Global(name).Size)
}
