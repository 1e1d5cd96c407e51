package fault

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/vm"
)

// FalsePositiveReport quantifies value-check failures in the absence of
// faults (paper §V "Impact of False Positives": 1 failure per ~235K
// instructions on average).
type FalsePositiveReport struct {
	Workload     string
	Dyn          int64
	CheckFails   int64
	FailingIDs   int // distinct checks that fired
	InstrPerFail float64
}

// FalsePositives runs the protected module fault-free on the target's
// input and counts expected-value check failures.
func FalsePositives(t Target, mod *ir.Module) (*FalsePositiveReport, error) {
	mach, err := newMachine(t, mod, 0, vm.EngineFast)
	if err != nil {
		return nil, err
	}
	res := mach.Run(vm.RunOptions{CountChecks: true})
	if res.Trap != nil {
		return nil, fmt.Errorf("fault: fault-free run trapped: %v", res.Trap)
	}
	rep := &FalsePositiveReport{
		Workload:   t.Name,
		Dyn:        res.Dyn,
		CheckFails: res.CheckFails,
		FailingIDs: len(res.PerCheckFails),
	}
	if res.CheckFails > 0 {
		rep.InstrPerFail = float64(res.Dyn) / float64(res.CheckFails)
	}
	return rep, nil
}
