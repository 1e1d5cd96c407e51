package ir

import (
	"fmt"
	"strings"
)

// Instr is a single SSA instruction. An instruction with a non-Void type is
// itself the SSA value it defines.
type Instr struct {
	// ID is the dense per-function value number (frame slot). Reassigned by
	// Func.Renumber after transformations insert or remove instructions.
	ID int
	// UID is a module-unique, transformation-stable identifier used to key
	// value profiles across module clones. Assigned once when the
	// instruction is created and preserved by Module.Clone.
	UID int

	Op   Op
	Ty   Type
	Args []Value

	// Phi instructions: Preds[i] is the predecessor block that contributes
	// Args[i]. len(Preds) == len(Args).
	Preds []*Block

	// Branch targets (OpJmp: Then; OpBr: Then/Else).
	Then, Else *Block

	Callee    *Func     // OpCall
	Intrinsic Intrinsic // OpIntrinsic

	// Check metadata (OpCmpCheck / OpRangeCheck / OpValCheck).
	Check   CheckKind
	CheckID int // stable check identifier for recovery bookkeeping

	Blk *Block // containing block
}

// Type returns the type of the value this instruction defines.
func (in *Instr) Type() Type { return in.Ty }

func (in *Instr) String() string { return fmt.Sprintf("%%%d", in.ID) }

// LongString renders the instruction in full for dumps and tests.
func (in *Instr) LongString() string {
	var b strings.Builder
	if in.Ty != Void {
		fmt.Fprintf(&b, "%%%d = ", in.ID)
	}
	b.WriteString(in.Op.String())
	if in.Op == OpIntrinsic {
		b.WriteString("." + in.Intrinsic.String())
	}
	if in.Ty != Void {
		b.WriteString(" " + in.Ty.String())
	}
	switch in.Op {
	case OpPhi:
		for i, a := range in.Args {
			fmt.Fprintf(&b, " [%s, %s]", a, in.Preds[i].Name)
		}
	case OpJmp:
		fmt.Fprintf(&b, " %s", in.Then.Name)
	case OpBr:
		fmt.Fprintf(&b, " %s, %s, %s", in.Args[0], in.Then.Name, in.Else.Name)
	case OpCall:
		fmt.Fprintf(&b, " @%s(", in.Callee.Name)
		for i, a := range in.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
		b.WriteString(")")
	default:
		for i, a := range in.Args {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(" " + a.String())
		}
	}
	if in.Op.IsCheck() {
		fmt.Fprintf(&b, " ; check#%d %s", in.CheckID, in.Check)
	}
	return b.String()
}

// ReplaceArg substitutes new for every occurrence of old among the operands.
func (in *Instr) ReplaceArg(old, new Value) {
	for i, a := range in.Args {
		if a == old {
			in.Args[i] = new
		}
	}
}

// PhiIncoming returns the value the phi takes when control arrives from
// pred, or nil if pred is not among its incoming edges.
func (in *Instr) PhiIncoming(pred *Block) Value {
	for i, p := range in.Preds {
		if p == pred {
			return in.Args[i]
		}
	}
	return nil
}
