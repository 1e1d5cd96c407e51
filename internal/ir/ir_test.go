package ir

import (
	"math/rand"
	"strings"
	"testing"
)

// buildLoopFunc constructs:
//
//	func sum(n i64) i64 {
//	  s := 0
//	  for i := 0; i < n; i++ { s += i }
//	  return s
//	}
//
// directly in SSA with phis, the canonical state-variable shape.
func buildLoopFunc(t testing.TB) (*Module, *Func) {
	t.Helper()
	m := NewModule("test")
	n := &Param{Name: "n", Ty: I64}
	f := m.NewFunc("sum", I64, n)
	b := NewBuilder(f)

	entry := b.Cur
	header := b.Block("header")
	body := b.Block("body")
	exit := b.Block("exit")

	b.Jmp(header)

	b.SetBlock(header)
	i := b.Phi(I64)
	s := b.Phi(I64)
	cond := b.Bin(OpLt, i, n)
	b.Br(cond, body, exit)

	b.SetBlock(body)
	s2 := b.Bin(OpAdd, s, i)
	i2 := b.Bin(OpAdd, i, ConstInt(1))
	b.Jmp(header)

	AddIncoming(i, ConstInt(0), entry)
	AddIncoming(i, i2, body)
	AddIncoming(s, ConstInt(0), entry)
	AddIncoming(s, s2, body)

	b.SetBlock(exit)
	b.Ret(s)

	m.Renumber()
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m, f
}

func TestBuilderProducesValidSSA(t *testing.T) {
	m, f := buildLoopFunc(t)
	if got := len(f.Blocks); got != 4 {
		t.Fatalf("blocks = %d, want 4", got)
	}
	dump := m.String()
	for _, want := range []string{"func @sum", "phi", "br", "ret"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestVerifyRejectsMissingTerminator(t *testing.T) {
	m := NewModule("bad")
	f := m.NewFunc("f", Void)
	b := NewBuilder(f)
	b.Bin(OpAdd, ConstInt(1), ConstInt(2))
	m.Renumber()
	if err := m.Verify(); err == nil {
		t.Fatal("verify accepted block without terminator")
	}
}

func TestVerifyRejectsTypeMismatch(t *testing.T) {
	m := NewModule("bad")
	f := m.NewFunc("f", Void)
	b := NewBuilder(f)
	in := &Instr{Op: OpAdd, Ty: I64, Args: []Value{ConstInt(1), ConstFloat(2)}}
	b.Emit(in)
	b.Ret(nil)
	m.Renumber()
	if err := m.Verify(); err == nil {
		t.Fatal("verify accepted i64 add with f64 operand")
	}
}

func TestVerifyRejectsUseBeforeDef(t *testing.T) {
	m := NewModule("bad")
	f := m.NewFunc("f", I64)
	b := NewBuilder(f)
	x := &Instr{Op: OpAdd, Ty: I64}
	y := b.Bin(OpMul, x, ConstInt(2)) // uses x before it exists
	x.Args = []Value{y, ConstInt(1)}
	b.Emit(x)
	b.Ret(x)
	m.Renumber()
	if err := m.Verify(); err == nil {
		t.Fatal("verify accepted use before definition")
	}
}

func TestVerifyRejectsPhiEdgeMismatch(t *testing.T) {
	m, f := buildLoopFunc(t)
	// Drop one edge from the first phi: edge count no longer matches preds.
	header := f.Blocks[1]
	phi := header.Phis()[0]
	phi.Args = phi.Args[:1]
	phi.Preds = phi.Preds[:1]
	if err := m.Verify(); err == nil {
		t.Fatal("verify accepted phi with missing edge")
	}
}

func TestDominatorsOnLoop(t *testing.T) {
	_, f := buildLoopFunc(t)
	dt := BuildDomTree(f)
	entry, header, body, exit := f.Blocks[0], f.Blocks[1], f.Blocks[2], f.Blocks[3]

	cases := []struct {
		a, b *Block
		want bool
	}{
		{entry, header, true},
		{entry, exit, true},
		{header, body, true},
		{header, exit, true},
		{body, exit, false},
		{body, header, false},
		{exit, body, false},
		{header, header, true},
	}
	for _, c := range cases {
		if got := dt.Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%s, %s) = %v, want %v", c.a.Name, c.b.Name, got, c.want)
		}
	}
}

func TestLoopDetection(t *testing.T) {
	_, f := buildLoopFunc(t)
	dt := BuildDomTree(f)
	loops := FindLoops(f, dt)
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	l := loops[0]
	if l.Header.Name != "header" {
		t.Errorf("header = %s", l.Header.Name)
	}
	if len(l.Latches) != 1 || l.Latches[0].Name != "body" {
		t.Errorf("latches = %v", l.Latches)
	}
	if !l.Contains(f.Blocks[1]) || !l.Contains(f.Blocks[2]) {
		t.Error("loop body missing header or body block")
	}
	if l.Contains(f.Blocks[0]) || l.Contains(f.Blocks[3]) {
		t.Error("loop body includes entry or exit")
	}
	if l.Depth != 1 {
		t.Errorf("depth = %d, want 1", l.Depth)
	}
}

// buildNestedLoops creates entry -> h1 -> h2 -> b2 -> h2 ... -> l1 -> h1 -> exit.
func buildNestedLoops(t testing.TB) *Func {
	t.Helper()
	m := NewModule("nest")
	f := m.NewFunc("f", Void)
	b := NewBuilder(f)
	entry := b.Cur
	h1 := b.Block("h1")
	h2 := b.Block("h2")
	b2 := b.Block("b2")
	l1 := b.Block("l1")
	exit := b.Block("exit")

	b.Jmp(h1)

	b.SetBlock(h1)
	c1 := b.Phi(I64)
	cond1 := b.Bin(OpLt, c1, ConstInt(10))
	b.Br(cond1, h2, exit)

	b.SetBlock(h2)
	c2 := b.Phi(I64)
	cond2 := b.Bin(OpLt, c2, ConstInt(5))
	b.Br(cond2, b2, l1)

	b.SetBlock(b2)
	c2n := b.Bin(OpAdd, c2, ConstInt(1))
	b.Jmp(h2)

	b.SetBlock(l1)
	c1n := b.Bin(OpAdd, c1, ConstInt(1))
	b.Jmp(h1)

	AddIncoming(c1, ConstInt(0), entry)
	AddIncoming(c1, c1n, l1)
	AddIncoming(c2, ConstInt(0), h1)
	AddIncoming(c2, c2n, b2)

	b.SetBlock(exit)
	b.Ret(nil)

	m.Renumber()
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return f
}

func TestNestedLoops(t *testing.T) {
	f := buildNestedLoops(t)
	dt := BuildDomTree(f)
	loops := FindLoops(f, dt)
	if len(loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(loops))
	}
	outer, inner := loops[0], loops[1]
	if len(outer.Body) < len(inner.Body) {
		outer, inner = inner, outer
	}
	if outer.Header.Name != "h1" || inner.Header.Name != "h2" {
		t.Errorf("headers = %s, %s", outer.Header.Name, inner.Header.Name)
	}
	if inner.Parent != outer {
		t.Error("inner loop's parent is not the outer loop")
	}
	if outer.Depth != 1 || inner.Depth != 2 {
		t.Errorf("depths = %d, %d", outer.Depth, inner.Depth)
	}
}

func TestCloneIsDeepAndPreservesUIDs(t *testing.T) {
	m, f := buildLoopFunc(t)
	c := m.Clone()
	if err := c.Verify(); err != nil {
		t.Fatalf("clone verify: %v", err)
	}
	if got, want := c.String(), m.String(); got != want {
		t.Fatalf("clone dump differs:\n%s\nvs\n%s", got, want)
	}
	// UID preservation.
	orig := m.InstrByUID()
	clone := c.InstrByUID()
	if len(orig) != len(clone) {
		t.Fatalf("uid count %d != %d", len(orig), len(clone))
	}
	for uid, in := range orig {
		cin, ok := clone[uid]
		if !ok {
			t.Fatalf("uid %d missing in clone", uid)
		}
		if cin == in {
			t.Fatalf("uid %d shares instruction pointer", uid)
		}
		if cin.Op != in.Op || cin.Ty != in.Ty {
			t.Fatalf("uid %d differs: %s vs %s", uid, cin.LongString(), in.LongString())
		}
	}
	// Mutating the clone must not touch the original.
	cf := c.Func("sum")
	cf.Blocks[2].Instrs[0].Op = OpMul
	if f.Blocks[2].Instrs[0].Op != OpAdd {
		t.Fatal("mutating clone changed original")
	}
}

// bruteDominates: a dominates b iff removing a makes b unreachable.
func bruteDominates(f *Func, a, b *Block) bool {
	if a == b {
		return true
	}
	seen := map[*Block]bool{a: true} // treat a as removed
	stack := []*Block{f.Entry()}
	if f.Entry() == a {
		return true // entry dominates everything reachable
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[x] {
			continue
		}
		seen[x] = true
		if x == b {
			return false
		}
		for _, s := range x.Succs {
			stack = append(stack, s)
		}
	}
	return true
}

func reachable(f *Func, b *Block) bool {
	seen := map[*Block]bool{}
	stack := []*Block{f.Entry()}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[x] {
			continue
		}
		seen[x] = true
		if x == b {
			return true
		}
		for _, s := range x.Succs {
			stack = append(stack, s)
		}
	}
	return false
}

// TestDominatorsMatchBruteForceOnRandomCFGs cross-checks the CHK algorithm
// against the definitional brute force on 200 random CFGs.
func TestDominatorsMatchBruteForceOnRandomCFGs(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 200; trial++ {
		m := NewModule("rnd")
		f := m.NewFunc("f", Void)
		nBlocks := 2 + rng.Intn(10)
		blocks := make([]*Block, nBlocks)
		for i := 0; i < nBlocks; i++ {
			blocks[i] = f.NewBlock("b")
		}
		for i, blk := range blocks {
			in := &Instr{}
			switch rng.Intn(3) {
			case 0:
				in.Op = OpRet
			case 1:
				in.Op = OpJmp
				in.Then = blocks[rng.Intn(nBlocks)]
			default:
				in.Op = OpBr
				in.Args = []Value{ConstInt(int64(rng.Intn(2)))}
				in.Then = blocks[rng.Intn(nBlocks)]
				in.Else = blocks[rng.Intn(nBlocks)]
			}
			in.Blk = blk
			blk.Instrs = append(blk.Instrs, in)
			blk.Index = i
		}
		f.ComputeCFG()
		dt := BuildDomTree(f)
		for _, a := range blocks {
			for _, b := range blocks {
				if !reachable(f, b) || !reachable(f, a) {
					continue
				}
				want := bruteDominates(f, a, b)
				if got := dt.Dominates(a, b); got != want {
					t.Fatalf("trial %d: Dominates(b%d, b%d) = %v, want %v", trial, a.Index, b.Index, got, want)
				}
			}
		}
	}
}

func TestProducersWalk(t *testing.T) {
	_, f := buildLoopFunc(t)
	// Producer chain of s2 (= s + i) stopping at phis: visits s2 only,
	// since both operands are phis (visited but not descended).
	body := f.Blocks[2]
	s2 := body.Instrs[0]
	var visited []*Instr
	Producers(s2, func(in *Instr) bool { return in.Op == OpPhi }, func(in *Instr) {
		visited = append(visited, in)
	})
	if len(visited) != 3 { // s2 + two phis
		t.Fatalf("visited %d instrs, want 3", len(visited))
	}
	if visited[0] != s2 {
		t.Error("walk did not start at root")
	}
}

func TestBlockInsertHelpers(t *testing.T) {
	_, f := buildLoopFunc(t)
	body := f.Blocks[2]
	n0 := len(body.Instrs)
	in := &Instr{Op: OpNeg, Ty: I64, Args: []Value{ConstInt(1)}}
	body.InsertBeforeTerminator(in)
	if len(body.Instrs) != n0+1 {
		t.Fatal("insert did not grow block")
	}
	if body.Instrs[len(body.Instrs)-2] != in {
		t.Fatal("InsertBeforeTerminator misplaced instruction")
	}
	if body.Terminator() == nil {
		t.Fatal("terminator lost")
	}
	in2 := &Instr{Op: OpNeg, Ty: I64, Args: []Value{ConstInt(2)}}
	body.InsertAfterInstr(in2, body.Instrs[0])
	if body.Instrs[1] != in2 {
		t.Fatal("InsertAfterInstr misplaced instruction")
	}
}
