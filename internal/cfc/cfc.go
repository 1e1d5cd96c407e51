// Package cfc implements signature-based control-flow checking in the
// style of CFCSS (Oh et al.), the complementary technique the paper points
// to for faults that corrupt branch targets (§IV-C: "for protecting against
// branch target faults, a previously proposed signature-based low-cost
// solution can be used in conjunction with our proposed approach").
//
// Every basic block gets a compile-time signature. A runtime signature
// word tracks the signature of the block that was just left; each block
// entry verifies that the incoming signature belongs to one of its legal
// predecessors, then installs its own. A branch that lands on a wrong
// block finds an unexpected signature and the check fires.
//
// The predecessor test reuses the expected-value check instruction: blocks
// with one or two predecessors are checked exactly; blocks with more fall
// back to a range check over their predecessors' (contiguously assigned)
// signatures when possible, and are left unchecked otherwise (counted in
// Stats.Unchecked — the classic CFCSS fan-in limitation).
package cfc

import (
	"fmt"

	"repro/internal/ir"
)

// SigGlobal is the runtime signature word's global name.
const SigGlobal = "__cfc_sig"

// Stats describes what the pass instrumented.
type Stats struct {
	Checks    int // signature checks inserted, one per checked block
	Unchecked int // blocks skipped (too many predecessors for a check)
}

// Protect instruments every function of m with control-flow signature
// checks. Check IDs start at startCheckID.
func Protect(m *ir.Module, startCheckID int) (*Stats, error) {
	if m.Global(SigGlobal) != nil {
		return nil, fmt.Errorf("cfc: module already instrumented")
	}
	sig := m.AddGlobal(SigGlobal, 1)
	stats := &Stats{}
	nextID := startCheckID

	// Function index participates in the signature so cross-function
	// confusion is also caught by the first check after a call returns.
	for fi, f := range m.Funcs {
		f.ComputeCFG()
		sigOf := func(b *ir.Block) int64 {
			return int64(fi+1)<<16 | int64(b.Index+1)
		}

		for _, b := range f.Blocks {
			var added []*ir.Instr
			newInstr := func(op ir.Op, ty ir.Type, args ...ir.Value) *ir.Instr {
				in := &ir.Instr{Op: op, Ty: ty, Args: args, UID: m.NewUID()}
				added = append(added, in)
				return in
			}

			if b != f.Entry() {
				switch n := len(b.Preds); {
				case n == 0:
					// Unreachable block: no dynamic path, nothing to check.
				case n <= 2:
					g := newInstr(ir.OpLoad, ir.I64, sig)
					args := []ir.Value{g, ir.ConstInt(sigOf(b.Preds[0]))}
					if n == 2 && b.Preds[1] != b.Preds[0] {
						args = append(args, ir.ConstInt(sigOf(b.Preds[1])))
					}
					chk := newInstr(ir.OpValCheck, ir.Void, args...)
					chk.Check = ir.CheckCFC
					chk.CheckID = nextID
					nextID++
					stats.Checks++
				default:
					// Predecessor signatures are index-based; contiguous
					// predecessor indices admit a range check.
					lo, hi := sigOf(b.Preds[0]), sigOf(b.Preds[0])
					for _, p := range b.Preds[1:] {
						s := sigOf(p)
						if s < lo {
							lo = s
						}
						if s > hi {
							hi = s
						}
					}
					if hi-lo == int64(len(b.Preds)-1) {
						g := newInstr(ir.OpLoad, ir.I64, sig)
						chk := newInstr(ir.OpRangeCheck, ir.Void, g, ir.ConstInt(lo), ir.ConstInt(hi))
						chk.Check = ir.CheckCFC
						chk.CheckID = nextID
						nextID++
						stats.Checks++
					} else {
						stats.Unchecked++
					}
				}
			}

			// Install this block's signature (after the check, so the check
			// sees the predecessor's value).
			newInstr(ir.OpStore, ir.Void, sig, ir.ConstInt(sigOf(b)))

			// Insert the prologue after the phi prefix.
			pos := len(b.Phis())
			for i, in := range added {
				b.InsertBefore(in, pos+i)
			}

			// A call clobbers the signature word with the callee's exit
			// signature; restore the current block's signature afterwards.
			for i := 0; i < len(b.Instrs); i++ {
				if b.Instrs[i].Op == ir.OpCall {
					restore := &ir.Instr{
						Op: ir.OpStore, Ty: ir.Void,
						Args: []ir.Value{sig, ir.ConstInt(sigOf(b))},
						UID:  m.NewUID(),
					}
					b.InsertBefore(restore, i+1)
					i++
				}
			}
		}
	}
	m.Renumber()
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("cfc: instrumentation produced invalid IR: %w", err)
	}
	return stats, nil
}
