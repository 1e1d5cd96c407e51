package vm

// Memory liveness over a snapshot ladder. A golden run that builds a ladder
// of snapshots (rungs 0, 1, … in the order they were taken) can record, for
// every memory word it touches, how the rest of the run accesses the word
// after each rung. A machine compared against rung k may then differ from
// it in a word the rest of the golden run provably never reads before
// overwriting it (MatchesLiveMemory), the memory counterpart of the dead
// register slots MatchesLiveState skips.
//
// Per word the masks keep, over the rungs:
//   - loadNext: bit k set when the word's first access at or after rung k
//     is a load;
//   - loadAfter: bit k set when any load of the word follows rung k. A
//     later load covers every earlier rung, so the set is always a prefix
//     of the rungs and is kept as its length (loads);
//   - undet: the first rung after which no access of the word has been
//     seen yet — bits [undet, rungs) of loadNext are still undetermined —
//     so each access costs O(1).
//
// Only the fast engine records, at each load and store (fused ones too),
// through one nil-checked field (Machine.acc) that every other run pays as
// a predictable branch. The masks grow to the highest word the run touches,
// not to the whole stack reservation.

import (
	"fmt"
	"math/bits"
)

// MaskRungs is the most rungs AccessMasks can describe: one bit per rung of
// a uint64.
const MaskRungs = 64

// AccessMasks is a golden run's memory-access record over the rungs of its
// snapshot ladder (see the file comment). It is written by one run and read
// by any number of comparing machines once that run has ended.
type AccessMasks struct {
	rungs        uint8
	outLo, outHi uint64 // the output global: ReadGlobal reads it after the run
	words        []wordAccess
}

// wordAccess is one word's record.
type wordAccess struct {
	loadNext uint64
	undet    uint8
	loads    uint8
}

// RecordAccesses starts recording the memory accesses of the machine's run
// into fresh masks, with no rung taken yet; Reset stops it. output names
// the global the caller reads with ReadGlobal once the run has ended: a
// read the engine does not see, so its words are never dead by disuse.
// Fast engine only.
func (m *Machine) RecordAccesses(output string) (*AccessMasks, error) {
	if m.eng == nil {
		return nil, fmt.Errorf("vm: access masks require the fast engine")
	}
	g := m.mod.Global(output)
	if g == nil {
		return nil, fmt.Errorf("vm: no global %q", output)
	}
	base := m.globalBase[output]
	m.acc = &AccessMasks{outLo: base, outHi: base + uint64(g.Size)}
	return m.acc, nil
}

// lowMask is the set of rungs [0, n); n may be MaskRungs.
func lowMask(n uint8) uint64 { return 1<<n - 1 }

// word returns addr's record, growing the masks to cover it.
func (a *AccessMasks) word(addr uint64) *wordAccess {
	if addr >= uint64(len(a.words)) {
		n := int(addr) + 1
		if n > cap(a.words) {
			w := make([]wordAccess, n, max(n, 2*cap(a.words)))
			copy(w, a.words)
			a.words = w
		}
		a.words = a.words[:n]
	}
	return &a.words[addr]
}

// load records a load of addr after the rungs taken so far.
func (a *AccessMasks) load(addr uint64) {
	x := a.word(addr)
	if x.undet < a.rungs {
		x.loadNext |= lowMask(a.rungs) &^ lowMask(x.undet)
		x.undet = a.rungs
	}
	x.loads = a.rungs
}

// store records a store to addr after the rungs taken so far.
func (a *AccessMasks) store(addr uint64) {
	a.word(addr).undet = a.rungs
}

// SetRungs declares that the ladder now holds n rungs: the ones kept so
// far, in order, then the ones taken since, which no access has followed
// yet. n may not shrink the ladder (Thin does) nor exceed MaskRungs.
func (a *AccessMasks) SetRungs(n int) {
	if n < int(a.rungs) || n > MaskRungs {
		panic(fmt.Sprintf("vm: %d rungs after %d (at most %d)", n, a.rungs, MaskRungs))
	}
	a.rungs = uint8(n)
}

// Thin keeps the rungs whose bit is set in keep and renumbers them in
// order, as the ladder does when it drops snapshots; keep's bits at or
// above the current rung count are ignored.
func (a *AccessMasks) Thin(keep uint64) {
	keep &= lowMask(a.rungs)
	below := func(n uint8) uint8 { return uint8(bits.OnesCount64(keep & lowMask(n))) }
	for i := range a.words {
		x := &a.words[i]
		x.loadNext = compress(x.loadNext, keep)
		x.undet, x.loads = below(x.undet), below(x.loads)
	}
	a.rungs = below(a.rungs)
}

// compress gathers the bits of x selected by keep into the low bits, in
// order.
func compress(x, keep uint64) uint64 {
	var out uint64
	for n := 0; x != 0 && keep != 0; n++ {
		low := keep & -keep
		if x&low != 0 {
			out |= 1 << n
		}
		x &^= low
		keep &^= low
	}
	return out
}

// dead reports whether word w may differ from the golden run's value at
// rung k without changing the rest of the run: the golden run's next
// access of w is a store, or there is none and w lies outside the output.
// A forced word — one a fault keeps re-forcing after the rung, so a store
// does not heal it — is dead only outside the output and when no load of
// it follows the rung at all; 0 names no forced word (address 0 is the
// null guard). Words beyond the masks are never dead.
func (a *AccessMasks) dead(w uint64, k uint8, forced uint64) bool {
	if w >= uint64(len(a.words)) {
		return false
	}
	x := &a.words[w]
	out := w >= a.outLo && w < a.outHi
	switch {
	case forced != 0 && w == forced:
		return !out && x.loads <= k
	case x.undet > k:
		return x.loadNext&(1<<k) == 0
	}
	return !out
}
