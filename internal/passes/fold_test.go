package passes

import (
	"math"
	"testing"

	"repro/internal/ir"
)

// foldFunc builds main(){ out[0] = expr } with expr constructed by build,
// folds, and returns the function.
func foldFunc(t *testing.T, build func(b *ir.Builder) ir.Value) *ir.Func {
	t.Helper()
	m := ir.NewModule("fold")
	out := m.AddGlobal("out", 1)
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	v := build(b)
	b.Store(out, v)
	b.Ret(nil)
	m.Renumber()
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	Fold(f)
	DCE(f)
	m.Renumber()
	if err := m.Verify(); err != nil {
		t.Fatalf("post-fold verify: %v", err)
	}
	return f
}

func countArith(f *ir.Func) int {
	n := 0
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op.IsArith() {
			n++
		}
		return true
	})
	return n
}

func storedConst(t *testing.T, f *ir.Func) *ir.Const {
	t.Helper()
	var c *ir.Const
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpStore {
			c, _ = in.Args[1].(*ir.Const)
			return false
		}
		return true
	})
	if c == nil {
		t.Fatalf("store operand is not a constant:\n%s", f.Dump())
	}
	return c
}

func TestFoldConstantExpression(t *testing.T) {
	f := foldFunc(t, func(b *ir.Builder) ir.Value {
		x := b.Bin(ir.OpAdd, ir.ConstInt(2), ir.ConstInt(3))
		y := b.Bin(ir.OpMul, x, ir.ConstInt(4))
		return b.Bin(ir.OpSub, y, ir.ConstInt(1)) // (2+3)*4-1 = 19
	})
	if got := storedConst(t, f).Int(); got != 19 {
		t.Fatalf("folded to %d, want 19", got)
	}
	if n := countArith(f); n != 0 {
		t.Fatalf("%d arith instructions survived", n)
	}
}

func TestFoldIdentities(t *testing.T) {
	m := ir.NewModule("ids")
	in := m.AddGlobal("in", 1)
	out := m.AddGlobal("out", 1)
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	x := b.Load(ir.I64, in)
	v := b.Bin(ir.OpAdd, x, ir.ConstInt(0)) // x
	v = b.Bin(ir.OpMul, v, ir.ConstInt(1))  // x
	v = b.Bin(ir.OpXor, v, ir.ConstInt(0))  // x
	v = b.Bin(ir.OpShl, v, ir.ConstInt(0))  // x
	b.Store(out, v)
	b.Ret(nil)
	m.Renumber()
	Fold(f)
	DCE(f)
	m.Renumber()
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if n := countArith(f); n != 0 {
		t.Fatalf("identities not folded, %d arith remain:\n%s", n, f.Dump())
	}
	// The store must now use the load directly.
	f.Instrs(func(in2 *ir.Instr) bool {
		if in2.Op == ir.OpStore {
			if ld, ok := in2.Args[1].(*ir.Instr); !ok || ld.Op != ir.OpLoad {
				t.Fatalf("store operand is not the load: %s", in2.LongString())
			}
		}
		return true
	})
}

func TestFoldMulByZero(t *testing.T) {
	m := ir.NewModule("z")
	in := m.AddGlobal("in", 1)
	out := m.AddGlobal("out", 1)
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	x := b.Load(ir.I64, in)
	v := b.Bin(ir.OpMul, x, ir.ConstInt(0))
	b.Store(out, v)
	b.Ret(nil)
	m.Renumber()
	Fold(f)
	DCE(f)
	m.Renumber()
	if c := storedConst(t, f); c.Int() != 0 {
		t.Fatalf("x*0 folded to %d", c.Int())
	}
}

// TestFoldDeclines lists every all-constant case the folder leaves to run
// time: the traps, the MinInt64/-1 wrap, FToI saturation, float remainder
// and pointer arithmetic. The folder computes with ir.Eval, the machine's
// own evaluator, so this table is what keeps a shared evaluator from
// widening folding silently.
func TestFoldDeclines(t *testing.T) {
	minInt, minusOne := ir.ConstInt(math.MinInt64), ir.ConstInt(-1)
	ftoi := func(f float64) func(b *ir.Builder) ir.Value {
		return func(b *ir.Builder) ir.Value { return b.FToI(ir.ConstFloat(f)) }
	}
	cases := []struct {
		name  string
		op    ir.Op
		build func(b *ir.Builder) ir.Value
	}{
		{"div by 0", ir.OpDiv, func(b *ir.Builder) ir.Value { return b.Bin(ir.OpDiv, ir.ConstInt(5), ir.ConstInt(0)) }},
		{"rem by 0", ir.OpRem, func(b *ir.Builder) ir.Value { return b.Bin(ir.OpRem, ir.ConstInt(5), ir.ConstInt(0)) }},
		{"MinInt64 / -1", ir.OpDiv, func(b *ir.Builder) ir.Value { return b.Bin(ir.OpDiv, minInt, minusOne) }},
		{"MinInt64 % -1", ir.OpRem, func(b *ir.Builder) ir.Value { return b.Bin(ir.OpRem, minInt, minusOne) }},
		{"ftoi NaN", ir.OpFToI, ftoi(math.NaN())},
		{"ftoi +Inf", ir.OpFToI, ftoi(math.Inf(1))},
		{"ftoi -Inf", ir.OpFToI, ftoi(math.Inf(-1))},
		{"ftoi 2^63", ir.OpFToI, ftoi(0x1p63)},
		{"ftoi -2^63", ir.OpFToI, ftoi(-0x1p63)},
		{"ftoi 1e19", ir.OpFToI, ftoi(1e19)},
		{"ftoi -1e19", ir.OpFToI, ftoi(-1e19)},
		{"f64 rem", ir.OpRem, func(b *ir.Builder) ir.Value { return b.Bin(ir.OpRem, ir.ConstFloat(7.5), ir.ConstFloat(2)) }},
		{"ptradd", ir.OpPtrAdd, func(b *ir.Builder) ir.Value { return b.PtrAdd(&ir.Const{Ty: ir.Ptr, Bits: 1}, ir.ConstInt(2)) }},
	}
	for _, c := range cases {
		f := foldFunc(t, c.build)
		n := 0
		f.Instrs(func(in *ir.Instr) bool {
			if in.Op == c.op {
				n++
			}
			return true
		})
		if n != 1 {
			t.Errorf("%s was folded:\n%s", c.name, f.Dump())
		}
	}
}

// TestFoldEdgeValues checks that edge cases the folder does fold give the
// machine's bits: signed zeros, masked shift counts, NaN comparisons and
// truncating FToI.
func TestFoldEdgeValues(t *testing.T) {
	negZero := math.Float64bits(math.Copysign(0, -1))
	cases := []struct {
		name  string
		build func(b *ir.Builder) ir.Value
		want  uint64
	}{
		{"neg 0.0", func(b *ir.Builder) ir.Value { return b.Neg(ir.ConstFloat(0)) }, negZero},
		{"shl count 65", func(b *ir.Builder) ir.Value { return b.Bin(ir.OpShl, ir.ConstInt(1), ir.ConstInt(65)) }, 2},
		{"NaN == NaN", func(b *ir.Builder) ir.Value {
			return b.Bin(ir.OpEq, ir.ConstFloat(math.NaN()), ir.ConstFloat(math.NaN()))
		}, 0},
		{"-0.0 == 0.0", func(b *ir.Builder) ir.Value {
			return b.Bin(ir.OpEq, &ir.Const{Ty: ir.F64, Bits: negZero}, ir.ConstFloat(0))
		}, 1},
		{"ftoi -2.9", func(b *ir.Builder) ir.Value { return b.FToI(ir.ConstFloat(-2.9)) }, uint64(math.MaxUint64 - 1)},
	}
	for _, c := range cases {
		f := foldFunc(t, c.build)
		if got := storedConst(t, f).Bits; got != c.want {
			t.Errorf("%s folded to %#x, want %#x", c.name, got, c.want)
		}
	}
}

func TestFoldConstantBranch(t *testing.T) {
	m := ir.NewModule("cb")
	out := m.AddGlobal("out", 1)
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	thenB := b.Block("then")
	elseB := b.Block("else")
	join := b.Block("join")
	b.Br(ir.ConstInt(1), thenB, elseB)

	b.SetBlock(thenB)
	b.Jmp(join)
	b.SetBlock(elseB)
	b.Jmp(join)

	b.SetBlock(join)
	phi := b.Phi(ir.I64)
	ir.AddIncoming(phi, ir.ConstInt(10), thenB)
	ir.AddIncoming(phi, ir.ConstInt(20), elseB)
	b.Store(out, phi)
	b.Ret(nil)
	m.Renumber()
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}

	Fold(f)
	DCE(f)
	m.Renumber()
	if err := m.Verify(); err != nil {
		t.Fatalf("post-fold verify: %v\n%s", err, f.Dump())
	}
	// else block is unreachable and removed; the phi collapses to 10.
	if len(f.Blocks) != 3 { // entry, then, join
		t.Fatalf("blocks = %d:\n%s", len(f.Blocks), f.Dump())
	}
	if got := storedConst(t, f).Int(); got != 10 {
		t.Fatalf("folded branch stored %d, want 10", got)
	}
}

func TestFoldFloatConstants(t *testing.T) {
	f := foldFunc(t, func(b *ir.Builder) ir.Value {
		x := b.Bin(ir.OpMul, ir.ConstFloat(2.5), ir.ConstFloat(4))
		return b.Bin(ir.OpAdd, x, ir.ConstFloat(0.5)) // 10.5
	})
	if got := storedConst(t, f).Float(); got != 10.5 {
		t.Fatalf("folded to %v", got)
	}
}

func TestFoldPreservesFloatIdentityHazards(t *testing.T) {
	// x + 0.0 must NOT fold (x = -0.0 gives +0.0).
	m := ir.NewModule("fh")
	in := m.AddGlobal("in", 1)
	out := m.AddGlobal("out", 1)
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	x := b.Load(ir.F64, in)
	v := b.Bin(ir.OpAdd, x, ir.ConstFloat(0))
	b.Store(out, v)
	b.Ret(nil)
	m.Renumber()
	Fold(f)
	m.Renumber()
	adds := 0
	f.Instrs(func(in2 *ir.Instr) bool {
		if in2.Op == ir.OpAdd {
			adds++
		}
		return true
	})
	if adds != 1 {
		t.Fatal("float x+0.0 was folded (unsound for -0.0)")
	}
}
