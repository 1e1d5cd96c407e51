package passes

import (
	"math"

	"repro/internal/ir"
)

// Fold performs constant folding and algebraic simplification, mirroring
// the cleanup a production compiler applies before instrumentation (the
// paper's LLVM pipeline). It folds operations whose operands are constants
// and applies safe identities (x+0, x*1, x*0, x&0, x|0, x^0, x<<0, phi with
// identical inputs, branches on constant conditions). Run before Mem2Reg or
// after; it only requires SSA uses to be rewritable.
func Fold(f *ir.Func) {
	changed := true
	for changed {
		changed = false
		replace := make(map[*ir.Instr]ir.Value)

		f.Instrs(func(in *ir.Instr) bool {
			if v := foldInstr(in); v != nil {
				replace[in] = v
				changed = true
			}
			return true
		})
		if len(replace) > 0 {
			// Rewrite uses (chase chains so a->b->c resolves fully).
			resolve := func(v ir.Value) ir.Value {
				for {
					in, ok := v.(*ir.Instr)
					if !ok {
						return v
					}
					r, ok := replace[in]
					if !ok {
						return v
					}
					v = r
				}
			}
			f.Instrs(func(in *ir.Instr) bool {
				for i, a := range in.Args {
					in.Args[i] = resolve(a)
				}
				return true
			})
			// Drop the folded instructions.
			for _, b := range f.Blocks {
				kept := b.Instrs[:0]
				for _, in := range b.Instrs {
					if _, dead := replace[in]; !dead {
						kept = append(kept, in)
					}
				}
				b.Instrs = kept
			}
		}
		if simplifyBranches(f) {
			changed = true
		}
	}
	f.Renumber()
	f.ComputeCFG()
}

// foldInstr returns a replacement value for in, or nil.
func foldInstr(in *ir.Instr) ir.Value {
	if in.Op == ir.OpPhi {
		// Phi with all-identical inputs collapses to that input.
		if len(in.Args) == 0 {
			return nil
		}
		first := in.Args[0]
		for _, a := range in.Args[1:] {
			if !sameValue(a, first) {
				return nil
			}
		}
		if first == in {
			return nil
		}
		return first
	}
	if !in.Op.IsArith() || in.Op == ir.OpIntrinsic {
		return nil
	}

	c0, ok0 := constOf(in.Args[0])
	var c1 *ir.Const
	ok1 := false
	if len(in.Args) > 1 {
		c1, ok1 = constOf(in.Args[1])
	}

	// Full constant folding.
	if ok0 && (len(in.Args) == 1 || ok1) {
		return foldConst(in, c0, c1)
	}

	// Algebraic identities with one constant operand.
	if in.Ty != ir.I64 {
		return nil // float identities are unsafe (-0, NaN)
	}
	x := in.Args[0]
	switch in.Op {
	case ir.OpAdd, ir.OpOr, ir.OpXor:
		if ok1 && c1.Int() == 0 {
			return x
		}
		if ok0 && c0.Int() == 0 {
			return in.Args[1]
		}
	case ir.OpSub, ir.OpShl, ir.OpShr:
		if ok1 && c1.Int() == 0 {
			return x
		}
	case ir.OpMul:
		if ok1 {
			switch c1.Int() {
			case 0:
				return ir.ConstInt(0)
			case 1:
				return x
			}
		}
		if ok0 {
			switch c0.Int() {
			case 0:
				return ir.ConstInt(0)
			case 1:
				return in.Args[1]
			}
		}
	case ir.OpAnd:
		if (ok1 && c1.Int() == 0) || (ok0 && c0.Int() == 0) {
			return ir.ConstInt(0)
		}
		if ok1 && c1.Int() == -1 {
			return x
		}
		if ok0 && c0.Int() == -1 {
			return in.Args[1]
		}
	case ir.OpDiv:
		if ok1 && c1.Int() == 1 {
			return x
		}
	}
	return nil
}

func constOf(v ir.Value) (*ir.Const, bool) {
	c, ok := v.(*ir.Const)
	return c, ok
}

func sameValue(a, b ir.Value) bool {
	if a == b {
		return true
	}
	ca, oka := a.(*ir.Const)
	cb, okb := b.(*ir.Const)
	return oka && okb && ca.Ty == cb.Ty && ca.Bits == cb.Bits
}

// foldConst evaluates an all-constant operation with ir.Eval, the evaluator
// the machine executes, so a folded constant is bit-identical to the value
// the machine would have computed. It returns nil for the traps (integer
// division or remainder by zero, where Eval's ok is false) and for the
// cases kept out of the folder on purpose: the MinInt64/-1 overflow wrap,
// FToI saturation (NaN, ±Inf, out of range), float remainder, pointer
// arithmetic, and ops outside the integer and float sets it folds.
// TestFoldDeclines lists them.
func foldConst(in *ir.Instr, c0, c1 *ir.Const) ir.Value {
	var b1 uint64
	if c1 != nil {
		b1 = c1.Bits
	}
	isFloat := in.Ty == ir.F64 && in.Op != ir.OpFToI
	switch {
	case isFloat:
		switch in.Op {
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpNeg, ir.OpIToF:
		default:
			return nil
		}
	case in.Op == ir.OpDiv || in.Op == ir.OpRem:
		if c0.Int() == math.MinInt64 && int64(b1) == -1 {
			return nil
		}
	case in.Op == ir.OpFToI:
		f := c0.Float()
		if math.IsNaN(f) || f >= math.MaxInt64 || f <= math.MinInt64 {
			return nil
		}
	case in.Op == ir.OpPtrAdd || in.Op == ir.OpIToF:
		return nil
	}
	bits, ok := ir.Eval(in.Op, in.Ty, c0.Ty, c0.Bits, b1)
	if !ok {
		return nil
	}
	if isFloat {
		return &ir.Const{Ty: ir.F64, Bits: bits}
	}
	return ir.ConstInt(int64(bits))
}

// simplifyBranches converts conditional branches on constants into jumps
// and prunes the dead edge's phi entries, then removes newly unreachable
// blocks.
func simplifyBranches(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpBr {
			continue
		}
		c, ok := t.Args[0].(*ir.Const)
		if !ok {
			continue
		}
		taken, dead := t.Then, t.Else
		if c.Int() == 0 {
			taken, dead = t.Else, t.Then
		}
		// Rewrite to an unconditional jump.
		t.Op = ir.OpJmp
		t.Args = nil
		t.Then = taken
		t.Else = nil
		changed = true
		if dead != taken {
			// Prune this predecessor's phi edges in the dead target.
			for _, phi := range dead.Phis() {
				for i := len(phi.Preds) - 1; i >= 0; i-- {
					if phi.Preds[i] == b {
						phi.Args = append(phi.Args[:i], phi.Args[i+1:]...)
						phi.Preds = append(phi.Preds[:i], phi.Preds[i+1:]...)
					}
				}
			}
		} else {
			// br c, X, X carried two phi edges from b; the jump carries one.
			for _, phi := range taken.Phis() {
				for i := len(phi.Preds) - 1; i >= 0; i-- {
					if phi.Preds[i] == b {
						phi.Args = append(phi.Args[:i], phi.Args[i+1:]...)
						phi.Preds = append(phi.Preds[:i], phi.Preds[i+1:]...)
						break // remove exactly one duplicate edge
					}
				}
			}
		}
	}
	if changed {
		f.ComputeCFG()
		RemoveUnreachable(f)
	}
	return changed
}
