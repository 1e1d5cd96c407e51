package ir

import (
	"slices"
	"testing"
)

// slotsOf lists a set's members in ascending order.
func slotsOf(f *Func, s SlotSet) []int {
	var out []int
	for slot := range f.NumValues() {
		if s.Has(slot) {
			out = append(out, slot)
		}
	}
	return out
}

func ids(vs ...Value) []int {
	var out []int
	for _, v := range vs {
		switch x := v.(type) {
		case *Param:
			out = append(out, x.ID)
		case *Instr:
			out = append(out, x.ID)
		}
	}
	slices.Sort(out)
	return out
}

func TestLivenessLoop(t *testing.T) {
	_, f := buildLoopFunc(t)
	n := f.Params[0]
	header, body, exit := f.Blocks[1], f.Blocks[2], f.Blocks[3]
	i, s, cond := header.Instrs[0], header.Instrs[1], header.Instrs[2]
	s2, i2 := body.Instrs[0], body.Instrs[1]
	lv := ComputeLiveness(f)

	cases := []struct {
		name string
		got  SlotSet
		want []int
	}{
		// The loop test reads i and n; both successors read s, the body i.
		{"before cond", lv.LiveBefore(cond), ids(i, s, n)},
		// s is dead once s2 has read it: the back edge carries s2 into the
		// phi, and the phis themselves are defined by the edge.
		{"after s2", lv.LiveAfter(s2), ids(i, s2, n)},
		{"before the back edge", lv.LiveBefore(body.Instrs[2]), ids(s2, i2, n)},
		{"before ret", lv.LiveBefore(exit.Instrs[0]), ids(s)},
		// The entry edge feeds constants into both phis: only n survives.
		{"before entry jmp", lv.LiveBefore(f.Blocks[0].Instrs[0]), ids(n)},
	}
	for _, c := range cases {
		if got := slotsOf(f, c.got); !slices.Equal(got, c.want) {
			t.Errorf("%s: live %v, want %v", c.name, got, c.want)
		}
	}
	if lv.LiveBefore(i) != nil || lv.LiveAfter(s) != nil {
		t.Error("phis execute on their edges and have no in-block live set")
	}
}

// TestLivenessFollowsExecution pins the rules that follow the lowered
// code rather than the verified CFG: a block that is unreachable from the
// entry is still solved, instructions behind a mid-block terminator read
// nothing, a fell-off block end reads nothing, and an edge on which a phi
// has no incoming value reads nothing.
func TestLivenessFollowsExecution(t *testing.T) {
	m := NewModule("exec")
	p := &Param{Name: "p", Ty: I64}
	f := m.NewFunc("f", I64, p)
	b := NewBuilder(f)
	entry := b.Cur
	orphan := b.Block("orphan")
	join := b.Block("join")

	x := b.Bin(OpAdd, p, ConstInt(1))
	b.Ret(x)
	dead := b.Bin(OpMul, p, p) // behind the ret: never executes

	b.SetBlock(orphan)
	y := b.Bin(OpSub, p, ConstInt(2))
	b.Jmp(join)

	b.SetBlock(join)
	phi := b.Phi(I64)
	AddIncoming(phi, y, entry) // no incoming value for orphan
	z := b.Bin(OpAdd, phi, p)
	b.Bin(OpAdd, z, z) // no terminator: the block falls off its end
	m.Renumber()

	lv := ComputeLiveness(f)
	if got := slotsOf(f, lv.LiveBefore(x)); !slices.Equal(got, ids(p)) {
		t.Errorf("before x: live %v, want %v (the mul behind ret must not count)", got, ids(p))
	}
	if got := slotsOf(f, lv.LiveAfter(dead)); got != nil {
		t.Errorf("after the block's last instruction: live %v, want none", got)
	}
	if got := slotsOf(f, lv.LiveBefore(z)); !slices.Equal(got, ids(phi, p)) {
		t.Errorf("before z: live %v, want %v", got, ids(phi, p))
	}
	// orphan -> join has no phi value, so the edge traps and y is never
	// read; p is read by orphan's own sub.
	if got := slotsOf(f, lv.LiveBefore(y)); !slices.Equal(got, ids(p)) {
		t.Errorf("before y in the unreachable block: live %v, want %v", got, ids(p))
	}
}
