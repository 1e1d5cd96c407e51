// Package vm interprets ir modules on a simulated machine: a flat
// word-addressed memory with bounds checking, a trap model that surfaces the
// hardware symptoms the paper's HWDetect category relies on (out-of-bounds
// accesses, division faults, runaway loops), a dependence-aware dual-issue
// timing model standing in for the paper's gem5 out-of-order ARM config
// (Table II), and hooks for value profiling and fault injection.
package vm

import (
	"fmt"

	"repro/internal/ir"
)

// TrapKind classifies abnormal terminations.
type TrapKind uint8

// Trap kinds.
const (
	TrapNone          TrapKind = iota
	TrapOOB                    // load/store/alloca outside valid memory
	TrapDivZero                // integer division or remainder by zero
	TrapWatchdog               // dynamic instruction budget exhausted (infinite loop)
	TrapStackOverflow          // call depth or stack space exhausted
	TrapCheck                  // a software fault-detection check fired
	TrapBadCall                // call to an unresolved function
	TrapCancelled              // RunOptions.Stop closed (context cancellation)
	TrapSuspended              // RunOptions.SuspendAtDyn reached; resumable via Run
)

func (k TrapKind) String() string {
	switch k {
	case TrapNone:
		return "none"
	case TrapOOB:
		return "out-of-bounds"
	case TrapDivZero:
		return "div-by-zero"
	case TrapWatchdog:
		return "watchdog"
	case TrapStackOverflow:
		return "stack-overflow"
	case TrapCheck:
		return "check"
	case TrapBadCall:
		return "bad-call"
	case TrapCancelled:
		return "cancelled"
	case TrapSuspended:
		return "suspended"
	}
	return fmt.Sprintf("trap(%d)", uint8(k))
}

// Trap describes an abnormal termination of a run.
type Trap struct {
	Kind TrapKind
	// Dyn is the dynamic instruction index at which the trap occurred.
	Dyn int64
	// Check metadata when Kind == TrapCheck.
	CheckID   int
	CheckKind ir.CheckKind
	// Fn is the function executing when the trap occurred.
	Fn string
}

func (t *Trap) Error() string {
	if t.Kind == TrapCheck {
		return fmt.Sprintf("trap %s (%s check #%d) at dyn %d in %s", t.Kind, t.CheckKind, t.CheckID, t.Dyn, t.Fn)
	}
	return fmt.Sprintf("trap %s at dyn %d in %s", t.Kind, t.Dyn, t.Fn)
}

// IsSymptom reports whether the trap is a hardware-visible symptom usable
// for low-cost detection (the paper's HWDetect class), as opposed to a
// software check firing.
func (t *Trap) IsSymptom() bool {
	return t.Kind == TrapOOB || t.Kind == TrapDivZero || t.Kind == TrapStackOverflow || t.Kind == TrapBadCall
}
