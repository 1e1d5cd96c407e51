package ir

import (
	"math"
	"testing"
)

// TestEvalEdgeCases pins the machine's semantics at the operands where
// they differ from a naive Go expression or where two readers could
// disagree: the division wrap and traps, masked shift counts, saturating
// FToI, signed zeros, NaN comparisons and float remainder.
func TestEvalEdgeCases(t *testing.T) {
	i := func(v int64) uint64 { return uint64(v) }
	f := math.Float64bits
	negZero := f(math.Copysign(0, -1))
	cases := []struct {
		name   string
		op     Op
		ty     Type
		argTy  Type
		a0, a1 uint64
		want   uint64
		ok     bool
	}{
		{"div by 0 traps", OpDiv, I64, I64, i(5), 0, 0, false},
		{"rem by 0 traps", OpRem, I64, I64, i(5), 0, 0, false},
		{"MinInt64 / -1 wraps", OpDiv, I64, I64, i(math.MinInt64), i(-1), i(math.MinInt64), true},
		{"MinInt64 % -1 is 0", OpRem, I64, I64, i(math.MinInt64), i(-1), 0, true},
		{"rem takes the dividend's sign", OpRem, I64, I64, i(-7), i(2), i(-1), true},
		{"shl count 64 masks to 0", OpShl, I64, I64, 1, 64, 1, true},
		{"shl count 65 masks to 1", OpShl, I64, I64, 1, 65, 2, true},
		{"shr is arithmetic, count masked", OpShr, I64, I64, i(-8), 65, i(-4), true},
		{"shl count -1 masks to 63", OpShl, I64, I64, 1, i(-1), 1 << 63, true},
		{"ftoi NaN is 0", OpFToI, I64, F64, f(math.NaN()), 0, 0, true},
		{"ftoi +Inf saturates", OpFToI, I64, F64, f(math.Inf(1)), 0, i(math.MaxInt64), true},
		{"ftoi -Inf saturates", OpFToI, I64, F64, f(math.Inf(-1)), 0, i(math.MinInt64), true},
		{"ftoi 2^63 saturates", OpFToI, I64, F64, f(0x1p63), 0, i(math.MaxInt64), true},
		{"ftoi -2^63 is exact", OpFToI, I64, F64, f(-0x1p63), 0, i(math.MinInt64), true},
		{"ftoi 1e19 saturates", OpFToI, I64, F64, f(1e19), 0, i(math.MaxInt64), true},
		{"ftoi truncates toward 0", OpFToI, I64, F64, f(-2.9), 0, i(-2), true},
		{"neg 0.0 is -0.0", OpNeg, F64, F64, 0, 0, negZero, true},
		{"-0.0 + -0.0 is -0.0", OpAdd, F64, F64, negZero, negZero, negZero, true},
		{"-0.0 + 0.0 is 0.0", OpAdd, F64, F64, negZero, 0, 0, true},
		{"-0.0 == 0.0", OpEq, I64, F64, negZero, 0, 1, true},
		{"NaN != NaN", OpNe, I64, F64, f(math.NaN()), f(math.NaN()), 1, true},
		{"NaN is unordered", OpGe, I64, F64, f(math.NaN()), f(1), 0, true},
		{"float div by 0 is Inf", OpDiv, F64, F64, f(1), 0, f(math.Inf(1)), true},
		{"float rem is fmod", OpRem, F64, F64, f(-7.25), f(2), f(-1.25), true},
		{"float rem by 0 is NaN", OpRem, F64, F64, f(1), 0, f(math.Mod(1, 0)), true},
		{"int compare is signed", OpLt, I64, I64, i(-1), 1, 1, true},
		{"itof", OpIToF, F64, I64, i(-3), 0, f(-3), true},
		{"intrinsic is not Eval's", OpIntrinsic, F64, F64, f(4), 0, 0, true},
	}
	for _, c := range cases {
		got, ok := Eval(c.op, c.ty, c.argTy, c.a0, c.a1)
		if got != c.want || ok != c.ok {
			t.Errorf("%s: Eval = %#x, %v; want %#x, %v", c.name, got, ok, c.want, c.ok)
		}
	}

	if got, ok := EvalIntrinsic(IntrClampI, i(-5), 0, 9); got != 0 || !ok {
		t.Errorf("clamp(-5, 0, 9) = %d, %v", int64(got), ok)
	}
	if got, ok := EvalIntrinsic(IntrFMin, negZero, 0, 0); got != negZero || !ok {
		t.Errorf("fmin(-0.0, 0.0) = %#x, %v", got, ok)
	}
	if _, ok := EvalIntrinsic(IntrinsicNone, 0, 0, 0); ok {
		t.Error("EvalIntrinsic accepted an unknown kind")
	}
}
