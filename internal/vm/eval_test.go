package vm

import (
	"math"
	"testing"

	"repro/internal/ir"
)

// pureForm is one typed pure operation: operands of types tys loaded from
// in[], the result stored to out[0].
type pureForm struct {
	name string
	tys  []ir.Type
	emit func(b *ir.Builder, args []ir.Value) *ir.Instr
}

func binForm(op ir.Op, ty ir.Type) pureForm {
	return pureForm{op.String() + "." + ty.String(), []ir.Type{ty, ty}, func(b *ir.Builder, a []ir.Value) *ir.Instr {
		return b.Bin(op, a[0], a[1])
	}}
}

func intrinForm(k ir.Intrinsic, ty ir.Type, nargs int) pureForm {
	tys := make([]ir.Type, nargs)
	for i := range tys {
		tys[i] = ty
	}
	return pureForm{k.String(), tys, func(b *ir.Builder, a []ir.Value) *ir.Instr {
		return b.Intrin(k, ty, a...)
	}}
}

// pureForms lists every pure op the machine executes, in each operand type
// the front end emits, plus an intrinsic kind the machine does not know.
func pureForms() []pureForm {
	var forms []pureForm
	compares := []ir.Op{ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe}
	for _, op := range append([]ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr}, compares...) {
		forms = append(forms, binForm(op, ir.I64))
	}
	for _, op := range append([]ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem}, compares...) {
		forms = append(forms, binForm(op, ir.F64))
	}
	forms = append(forms,
		pureForm{"neg.i64", []ir.Type{ir.I64}, func(b *ir.Builder, a []ir.Value) *ir.Instr { return b.Neg(a[0]) }},
		pureForm{"neg.f64", []ir.Type{ir.F64}, func(b *ir.Builder, a []ir.Value) *ir.Instr { return b.Neg(a[0]) }},
		pureForm{"itof", []ir.Type{ir.I64}, func(b *ir.Builder, a []ir.Value) *ir.Instr { return b.IToF(a[0]) }},
		pureForm{"ftoi", []ir.Type{ir.F64}, func(b *ir.Builder, a []ir.Value) *ir.Instr { return b.FToI(a[0]) }},
		pureForm{"ptradd", []ir.Type{ir.Ptr, ir.I64}, func(b *ir.Builder, a []ir.Value) *ir.Instr { return b.PtrAdd(a[0], a[1]) }},
		intrinForm(ir.IntrSqrt, ir.F64, 1),
		intrinForm(ir.IntrFAbs, ir.F64, 1),
		intrinForm(ir.IntrIAbs, ir.I64, 1),
		intrinForm(ir.IntrFMin, ir.F64, 2),
		intrinForm(ir.IntrFMax, ir.F64, 2),
		intrinForm(ir.IntrIMin, ir.I64, 2),
		intrinForm(ir.IntrIMax, ir.I64, 2),
		intrinForm(ir.IntrExp, ir.F64, 1),
		intrinForm(ir.IntrLog, ir.F64, 1),
		intrinForm(ir.IntrFloor, ir.F64, 1),
		intrinForm(ir.IntrPow, ir.F64, 2),
		intrinForm(ir.IntrClampI, ir.I64, 3),
		intrinForm(ir.Intrinsic(200), ir.F64, 1),
	)
	return forms
}

// edgeOperands returns the operand grid for an operand type: the integer
// corners (MinInt64 / -1, shift counts at and beyond 64) and the float
// corners (-0.0, two NaN payloads, infinities, FToI's saturation bounds,
// subnormals). Two NaNs make every binary float op meet a pair of distinct
// NaNs, whose result payload Go leaves to the compiled code.
func edgeOperands(ty ir.Type) []uint64 {
	if ty == ir.F64 {
		var out []uint64
		for _, f := range []float64{0, math.Copysign(0, -1), 1, -1.5, 2.5, -7.25,
			math.NaN(), math.Inf(1), math.Inf(-1), 0x1p63, -0x1p63, 1e19, -1e19,
			5e-324, math.MaxFloat64} {
			out = append(out, math.Float64bits(f))
		}
		return append(out, 0xFFF8000000000000) // a second NaN: sign set, payload 0
	}
	var out []uint64
	for _, v := range []int64{0, 1, -1, 2, 7, 63, 64, 65, 127, 128, -64,
		math.MinInt64, math.MaxInt64} {
		out = append(out, uint64(v))
	}
	return out
}

// pureModule builds main() { out[0] = form(load in[0], ..., load in[n-1]) }
// and returns it with the pure instruction.
func pureModule(t *testing.T, f pureForm) (*ir.Module, *ir.Instr) {
	t.Helper()
	m := ir.NewModule("pure")
	in := m.AddGlobal("in", len(f.tys))
	out := m.AddGlobal("out", 1)
	fn := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(fn)
	var args []ir.Value
	for i, ty := range f.tys {
		args = append(args, b.Load(ty, b.PtrAdd(in, ir.ConstInt(int64(i)))))
	}
	op := f.emit(b, args)
	b.Store(out, op)
	b.Ret(nil)
	m.Renumber()
	if err := m.Verify(); err != nil {
		t.Fatalf("%s: %v", f.name, err)
	}
	return m, op
}

// TestEdgeOperandsMatchEval runs every pure op on both engines over edge
// operands and requires the bits, or the trap, that the ir evaluators give.
// The fast engine computes arithmetic in its own inline switch, so this
// pins it, the tree interpreter and the constant folder's evaluator to one
// semantics at exactly the operands a random sweep rarely draws.
func TestEdgeOperandsMatchEval(t *testing.T) {
	for _, f := range pureForms() {
		mod, op := pureModule(t, f)
		want := func(a []uint64) (uint64, TrapKind) {
			var a1, a2 uint64
			if len(a) > 1 {
				a1 = a[1]
			}
			if op.Op == ir.OpIntrinsic {
				if len(a) > 2 {
					a2 = a[2]
				}
				if bits, ok := ir.EvalIntrinsic(op.Intrinsic, a[0], a1, a2); ok {
					return bits, TrapNone
				}
				return 0, TrapBadCall
			}
			if bits, ok := ir.Eval(op.Op, op.Ty, f.tys[0], a[0], a1); ok {
				return bits, TrapNone
			}
			return 0, TrapDivZero
		}
		for _, engine := range []EngineKind{EngineFast, EngineTree} {
			cfg := DefaultConfig()
			cfg.StackWords = 16
			cfg.Engine = engine
			mach, err := New(mod, cfg)
			if err != nil {
				t.Fatal(err)
			}
			args := make([]uint64, len(f.tys))
			var walk func(i int)
			walk = func(i int) {
				if i < len(args) {
					for _, v := range edgeOperands(f.tys[i]) {
						args[i] = v
						walk(i + 1)
					}
					return
				}
				if err := mach.BindInput("in", args); err != nil {
					t.Fatal(err)
				}
				mach.Reset()
				res := mach.Run(RunOptions{})
				wantBits, wantTrap := want(args)
				gotTrap := TrapNone
				if res.Trap != nil {
					gotTrap = res.Trap.Kind
				}
				var got uint64
				if gotTrap == TrapNone {
					out, _ := mach.ReadGlobal("out")
					got = out[0]
				}
				if gotTrap != wantTrap || got != wantBits {
					t.Errorf("engine %d: %s(%#x) = %#x trap %v, want %#x trap %v",
						engine, f.name, args, got, gotTrap, wantBits, wantTrap)
				}
			}
			walk(0)
		}
	}
}
