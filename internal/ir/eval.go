package ir

import "math"

// Eval computes the pure operation op on raw operand bits exactly as the
// machine executes it. The tree interpreter and the constant folder both
// call it, so a folded constant is the value the machine would have
// produced. ty is the result type; argTy is the first operand's type, which
// types the comparisons. ok is false exactly where the machine traps:
// integer division or remainder by zero. Float forms apply to F64 results
// (FToI excepted); any other op/type pair takes the integer form, and an op
// outside the defined set, including OpIntrinsic (see EvalIntrinsic),
// yields 0.
func Eval(op Op, ty, argTy Type, a0, a1 uint64) (bits uint64, ok bool) {
	if ty == F64 && op != OpFToI {
		switch op {
		case OpAdd:
			return f2b(b2f(a0) + b2f(a1)), true
		case OpSub:
			return f2b(b2f(a0) - b2f(a1)), true
		case OpMul:
			return f2b(b2f(a0) * b2f(a1)), true
		case OpDiv:
			return f2b(b2f(a0) / b2f(a1)), true
		case OpRem:
			return f2b(math.Mod(b2f(a0), b2f(a1))), true
		case OpNeg:
			return f2b(-b2f(a0)), true
		case OpIToF:
			return f2b(float64(int64(a0))), true
		}
	}

	x, y := int64(a0), int64(a1)
	switch op {
	case OpAdd, OpPtrAdd:
		return a0 + a1, true
	case OpSub:
		return a0 - a1, true
	case OpMul:
		return a0 * a1, true
	case OpDiv:
		switch {
		case y == 0:
			return 0, false
		case x == math.MinInt64 && y == -1:
			return a0, true // hardware-style overflow wrap
		}
		return uint64(x / y), true
	case OpRem:
		switch {
		case y == 0:
			return 0, false
		case x == math.MinInt64 && y == -1:
			return 0, true
		}
		return uint64(x % y), true
	case OpAnd:
		return a0 & a1, true
	case OpOr:
		return a0 | a1, true
	case OpXor:
		return a0 ^ a1, true
	case OpShl:
		return uint64(x << uint(y&63)), true
	case OpShr:
		return uint64(x >> uint(y&63)), true
	case OpNeg:
		return uint64(-x), true
	case OpFToI:
		// Saturating, with NaN converting to 0.
		f := b2f(a0)
		switch {
		case math.IsNaN(f):
			return 0, true
		case f >= math.MaxInt64:
			return math.MaxInt64, true
		case f <= math.MinInt64:
			return 1 << 63, true // MinInt64
		}
		return uint64(int64(f)), true
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		if compare(op, argTy, a0, a1) {
			return 1, true
		}
		return 0, true
	}
	return 0, true
}

// compare evaluates a comparison typed by its operands: numerically for
// F64 (NaN compares unequal to everything), signed for everything else.
func compare(op Op, argTy Type, a0, a1 uint64) bool {
	if argTy == F64 {
		f0, f1 := b2f(a0), b2f(a1)
		switch op {
		case OpEq:
			return f0 == f1
		case OpNe:
			return f0 != f1
		case OpLt:
			return f0 < f1
		case OpLe:
			return f0 <= f1
		case OpGt:
			return f0 > f1
		}
		return f0 >= f1
	}
	x, y := int64(a0), int64(a1)
	switch op {
	case OpEq:
		return x == y
	case OpNe:
		return x != y
	case OpLt:
		return x < y
	case OpLe:
		return x <= y
	case OpGt:
		return x > y
	}
	return x >= y
}

// EvalIntrinsic computes math builtin k on raw operand bits; a2 is read
// only by IntrClampI. ok is false for an unknown kind, where the machine
// traps as a bad call.
func EvalIntrinsic(k Intrinsic, a0, a1, a2 uint64) (bits uint64, ok bool) {
	switch k {
	case IntrSqrt:
		return f2b(math.Sqrt(b2f(a0))), true
	case IntrFAbs:
		return f2b(math.Abs(b2f(a0))), true
	case IntrIAbs:
		v := int64(a0)
		if v < 0 {
			v = -v
		}
		return uint64(v), true
	case IntrFMin:
		return f2b(math.Min(b2f(a0), b2f(a1))), true
	case IntrFMax:
		return f2b(math.Max(b2f(a0), b2f(a1))), true
	case IntrIMin:
		if int64(a0) < int64(a1) {
			return a0, true
		}
		return a1, true
	case IntrIMax:
		if int64(a0) > int64(a1) {
			return a0, true
		}
		return a1, true
	case IntrExp:
		return f2b(math.Exp(b2f(a0))), true
	case IntrLog:
		return f2b(math.Log(b2f(a0))), true
	case IntrFloor:
		return f2b(math.Floor(b2f(a0))), true
	case IntrPow:
		return f2b(math.Pow(b2f(a0), b2f(a1))), true
	case IntrClampI:
		v, lo, hi := int64(a0), int64(a1), int64(a2)
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		return uint64(v), true
	}
	return 0, false
}

func b2f(b uint64) float64 { return math.Float64frombits(b) }
func f2b(f float64) uint64 { return math.Float64bits(f) }
