package ir

import "slices"

// Liveness answers which frame slots a function can still read. A slot is
// live at a program point when some path from that point reads it before
// redefining it; a dead slot's contents can never influence the rest of
// the activation.
//
// The analysis follows execution, not Block.Succs: a block's successors
// are the targets of the branch instructions it actually contains, so
// instructions after a mid-block terminator are never reached, and a
// block that falls off its end reads nothing more. Phi operands count as
// uses at the end of their predecessor edge (the edge reads every incoming
// value, then defines every phi), and an edge on which some phi of the
// target has no incoming value reads nothing (it traps). Every block is
// solved, reachable from the entry or not, so the sets stay exact for a
// run that a branch-target fault sent into an unreachable block.

// SlotSet is a bitset over a function's frame slots.
type SlotSet []uint64

func newSlotSet(n int) SlotSet { return make(SlotSet, (n+63)/64) }

// Has reports whether slot is in the set.
func (s SlotSet) Has(slot int) bool {
	return slot >= 0 && slot/64 < len(s) && s[slot/64]&(1<<(slot%64)) != 0
}

func (s SlotSet) add(slot int)    { s[slot/64] |= 1 << (slot % 64) }
func (s SlotSet) remove(slot int) { s[slot/64] &^= 1 << (slot % 64) }

func (s SlotSet) union(o SlotSet) {
	for i, w := range o {
		s[i] |= w
	}
}

// Liveness holds the solved live sets of one function.
type Liveness struct {
	fn *Func
	n  int // NumValues when solved
	// in[b.Index] holds the slots live before b's first non-phi
	// instruction.
	in []SlotSet
}

// ComputeLiveness solves f's backward liveness dataflow. Block indices
// and value IDs must be current (Func.Renumber).
func ComputeLiveness(f *Func) *Liveness {
	lv := &Liveness{fn: f, n: f.NumValues(), in: make([]SlotSet, len(f.Blocks))}
	for i := range lv.in {
		lv.in[i] = newSlotSet(lv.n)
	}
	live, tmp := newSlotSet(lv.n), newSlotSet(lv.n)
	// The sets only grow, so a pass that changes none of them is the fixed
	// point. Reverse block order visits most successors before their
	// predecessors, which keeps the number of passes near the loop depth.
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			lv.walk(b, len(b.Phis()), live, tmp)
			if !slices.Equal(live, lv.in[i]) {
				copy(lv.in[i], live)
				changed = true
			}
		}
	}
	return lv
}

// LiveBefore returns the slots live just before in executes. It returns
// nil when in is a phi (phis execute on their incoming edges) or is not
// an instruction of the analysed function.
func (lv *Liveness) LiveBefore(in *Instr) SlotSet {
	return lv.at(in, 0)
}

// LiveAfter returns the slots live just after in executes, at the next
// instruction of its block; nil under the same conditions as LiveBefore.
func (lv *Liveness) LiveAfter(in *Instr) SlotSet {
	return lv.at(in, 1)
}

func (lv *Liveness) at(in *Instr, skip int) SlotSet {
	b := in.Blk
	if b == nil || b.Index >= len(lv.fn.Blocks) || lv.fn.Blocks[b.Index] != b {
		return nil
	}
	i := b.IndexOf(in)
	if i < len(b.Phis()) {
		return nil
	}
	live := newSlotSet(lv.n)
	lv.walk(b, i+skip, live, newSlotSet(lv.n))
	return live
}

// walk sets live to the slots live before b.Instrs[from] (from ==
// len(b.Instrs) is the fell-off end of the block), from the current block
// sets of b's successors. tmp is scratch.
func (lv *Liveness) walk(b *Block, from int, live, tmp SlotSet) {
	clear(live)
	for i := len(b.Instrs) - 1; i >= from; i-- {
		in := b.Instrs[i]
		switch in.Op {
		case OpJmp:
			clear(live)
			lv.edge(b, in.Then, live, tmp)
		case OpBr:
			clear(live)
			lv.edge(b, in.Then, live, tmp)
			lv.edge(b, in.Else, live, tmp)
		case OpRet:
			clear(live)
		default:
			// Stores and checks write no slot; a Void result is left live,
			// which can only over-approximate.
			if in.Ty != Void && in.Op != OpStore && !in.Op.IsCheck() {
				lv.kill(in.ID, live)
			}
		}
		for _, a := range in.Args {
			lv.use(a, live)
		}
	}
}

// edge adds to live the slots live at the start of the edge from -> to:
// to's block set minus the phis the edge defines, plus the incoming values
// it reads.
func (lv *Liveness) edge(from, to *Block, live, tmp SlotSet) {
	if to == nil {
		return
	}
	phis := to.Phis()
	if len(phis) == 0 {
		live.union(lv.in[to.Index])
		return
	}
	for _, phi := range phis {
		if phi.PhiIncoming(from) == nil {
			return // the edge traps before reading anything
		}
	}
	copy(tmp, lv.in[to.Index])
	for _, phi := range phis {
		lv.kill(phi.ID, tmp)
	}
	for _, phi := range phis {
		lv.use(phi.PhiIncoming(from), tmp)
	}
	live.union(tmp)
}

func (lv *Liveness) kill(slot int, live SlotSet) {
	if slot >= 0 && slot < lv.n {
		live.remove(slot)
	}
}

// use marks the slot an operand reads; constants and globals occupy none.
func (lv *Liveness) use(v Value, live SlotSet) {
	slot := -1
	switch x := v.(type) {
	case *Param:
		slot = x.ID
	case *Instr:
		slot = x.ID
	}
	if slot >= 0 && slot < lv.n {
		live.add(slot)
	}
}
