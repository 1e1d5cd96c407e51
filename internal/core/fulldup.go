package core

import "repro/internal/ir"

// fullDuplicate implements the SWIFT-style baseline: duplicate every
// computation chain feeding a store (value and address), a conditional
// branch, a return, or a call argument, and compare original against
// duplicate at those sinks. Loads and stores themselves are not duplicated
// (the paper's "maximum amount of duplication possible without duplicating
// loads/stores"); phis are mirrored like state variables so redundancy is
// carried across iterations.
func fullDuplicate(f *ir.Func, startCheckID int) (stats Stats, nextCheckID int) {
	// Mirror every loop-header phi carrying in-loop state (these need
	// independent carried state); other phis act as chain terminators.
	svs := FindStateVars(f)
	stats.StateVars = len(svs)

	d := newDuplicator(f, nil, false)
	dupChecks, next := d.mirrorStateVars(svs, startCheckID)
	nextCheckID = next

	// Collect sinks before inserting anything (we mutate blocks as we go).
	type sink struct {
		in   *ir.Instr
		args []int // operand indices whose chains to duplicate and compare
	}
	var sinks []sink
	f.Instrs(func(in *ir.Instr) bool {
		switch in.Op {
		case ir.OpStore:
			sinks = append(sinks, sink{in, []int{0, 1}})
		case ir.OpBr:
			sinks = append(sinks, sink{in, []int{0}})
		case ir.OpRet:
			if len(in.Args) == 1 {
				sinks = append(sinks, sink{in, []int{0}})
			}
		case ir.OpCall:
			idx := make([]int, len(in.Args))
			for i := range idx {
				idx[i] = i
			}
			if len(idx) > 0 {
				sinks = append(sinks, sink{in, idx})
			}
		}
		return true
	})

	for _, s := range sinks {
		for _, ai := range s.args {
			orig := s.in.Args[ai]
			dup := d.dup(orig)
			if dup == orig {
				continue // chain terminated immediately; nothing to compare
			}
			origIn := orig.(*ir.Instr)
			chk := &ir.Instr{
				Op: ir.OpCmpCheck, Ty: ir.Void,
				Args:    []ir.Value{origIn, dup},
				Check:   ir.CheckDup,
				CheckID: nextCheckID,
				UID:     f.Module.NewUID(),
			}
			nextCheckID++
			dupChecks++
			s.in.Blk.InsertBefore(chk, s.in.Blk.IndexOf(s.in))
		}
	}

	stats.DupInstrs = d.cloned
	stats.DupChecks = dupChecks
	return stats, nextCheckID
}
