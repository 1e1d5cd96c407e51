package fault

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

// falseposSrc is a crafted workload whose single hot value (in[i], constant
// across the loop) dominates the profile, so check planning with default
// coverage thresholds installs expected-value/range checks keyed to the
// training input. N=64 iterations clears the planner's minimum-sample bar.
const falseposSrc = `
global int in[64];
global int out[64];
void main() {
	for (int i = 0; i < 64; i += 1) {
		out[i & 63] = (in[i & 63] * 3) + 7;
	}
}
`

// protectOn compiles falseposSrc, profiles it on train, and returns a
// DupVal-protected module, its protection statistics, and a Target bound to
// the given run input.
func protectOn(t *testing.T, train, run []int64) (Target, *ir.Module, *core.Stats) {
	t.Helper()
	mod, err := lang.Compile("falsepos", falseposSrc)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := vm.New(mod, vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := mach.BindInputInts("in", train); err != nil {
		t.Fatal(err)
	}
	mach.Reset()
	col := profile.NewCollector(profile.DefaultBins)
	if res := mach.Run(vm.RunOptions{Profiler: col}); res.Trap != nil {
		t.Fatal(res.Trap)
	}
	prot := mod.Clone()
	st, err := core.Protect(prot, core.SchemeDupVal, col.Data(), core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tgt := Target{
		Name:   "falsepos-crafted",
		Output: "out",
		Bind: func(m *vm.Machine) error {
			return m.BindInputInts("in", run)
		},
	}
	return tgt, prot, st
}

func constInput(v int64) []int64 {
	in := make([]int64, 64)
	for i := range in {
		in[i] = v
	}
	return in
}

// TestFalsePositivesZeroOnTrainingInput: running on the very input the
// profile was collected from must report zero check failures — anything
// else is the class of bug the difftest oracle's invariant 3 hunts.
func TestFalsePositivesZeroOnTrainingInput(t *testing.T) {
	train := constInput(5)
	tgt, prot, _ := protectOn(t, train, train)
	rep, err := FalsePositives(tgt, prot)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckFails != 0 {
		t.Errorf("check failures on the training input: %d (distinct checks: %d)",
			rep.CheckFails, rep.FailingIDs)
	}
	if rep.Workload != "falsepos-crafted" {
		t.Errorf("report workload = %q", rep.Workload)
	}
	if rep.Dyn == 0 {
		t.Error("report did not record dynamic instruction count")
	}
	if rep.InstrPerFail != 0 {
		t.Errorf("InstrPerFail should stay 0 with no failures, got %g", rep.InstrPerFail)
	}
}

// TestFalsePositivesCountedOnShiftedInput: a run input disjoint from the
// training distribution must make the planned checks fire, and the report's
// accounting (fail count, distinct check IDs, instructions-per-failure)
// must be internally consistent.
func TestFalsePositivesCountedOnShiftedInput(t *testing.T) {
	tgt, prot, st := protectOn(t, constInput(5), constInput(9))
	if st.ValueChecks == 0 {
		t.Fatal("crafted workload got no value checks planned — test premise broken")
	}
	rep, err := FalsePositives(tgt, prot)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckFails == 0 {
		t.Fatal("shifted input fired no checks — test premise broken")
	}
	if rep.FailingIDs == 0 || int64(rep.FailingIDs) > rep.CheckFails {
		t.Errorf("FailingIDs=%d inconsistent with CheckFails=%d", rep.FailingIDs, rep.CheckFails)
	}
	want := float64(rep.Dyn) / float64(rep.CheckFails)
	if rep.InstrPerFail != want {
		t.Errorf("InstrPerFail = %g, want Dyn/CheckFails = %g", rep.InstrPerFail, want)
	}
	// Determinism: the same fault-free run must reproduce identical counts.
	rep2, err := FalsePositives(tgt, prot)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CheckFails != rep.CheckFails || rep2.Dyn != rep.Dyn {
		t.Errorf("false-positive accounting not deterministic: %+v vs %+v", rep, rep2)
	}
}
