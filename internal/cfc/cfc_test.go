package cfc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/vm"
)

const loopSrc = `
global int in[64];
global int out[64];
int helper(int x) {
	if (x > 100) { return x - 100; }
	return x;
}
void main() {
	int acc = 0;
	for (int i = 0; i < 64; i += 1) {
		acc = (acc + in[i]) & 0xffff;
		if (acc % 3 == 0) {
			out[i] = helper(acc);
		} else {
			out[i] = i;
		}
	}
}`

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := lang.Compile("cfc", src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func inputs() []int64 {
	out := make([]int64, 64)
	for i := range out {
		out[i] = int64(i*13 + 5)
	}
	return out
}

// branchFault is a branch-target fault hook: the first branch whose
// post-increment dyn reaches trigger goes to the block pick chooses. It is
// due one instruction earlier and walks forward to that branch.
type branchFault struct {
	trigger int64
	pick    func(nBlocks int) int
	done    bool
}

func (f *branchFault) Next() int64 {
	if f.done {
		return math.MaxInt64
	}
	return max(f.trigger-1, 0)
}

func (f *branchFault) Fire(m *vm.Machine) { f.done = m.RedirectBranch(f.pick) }

func run(t *testing.T, m *ir.Module, hook vm.FaultHook) (*vm.Result, []int64) {
	t.Helper()
	mach, err := vm.New(m, vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := vm.DefaultConfig()
	cfg.MaxDyn = 10_000_000
	mach, err = vm.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := mach.BindInputInts("in", inputs()); err != nil {
		t.Fatal(err)
	}
	mach.Reset()
	res := mach.Run(vm.RunOptions{Hook: hook})
	var out []int64
	if res.Trap == nil {
		out, _ = mach.ReadGlobalInts("out")
	}
	return res, out
}

func TestInstrumentationPreservesSemantics(t *testing.T) {
	base := compile(t, loopSrc)
	prot := base.Clone()
	stats, err := Protect(prot, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checks == 0 {
		t.Fatalf("nothing instrumented: %+v", stats)
	}

	r0, o0 := run(t, base, nil)
	r1, o1 := run(t, prot, nil)
	if r0.Trap != nil || r1.Trap != nil {
		t.Fatalf("traps: %v / %v", r0.Trap, r1.Trap)
	}
	for i := range o0 {
		if o0[i] != o1[i] {
			t.Fatalf("instrumentation changed out[%d]", i)
		}
	}
	if r1.Dyn <= r0.Dyn {
		t.Error("instrumentation added no dynamic work")
	}
}

func TestDoubleInstrumentationRejected(t *testing.T) {
	m := compile(t, loopSrc)
	if _, err := Protect(m, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Protect(m, 100); err == nil {
		t.Fatal("second instrumentation accepted")
	}
}

// TestCFCDetectsBranchTargetFaults is the headline property: under the
// branch-target fault model, the instrumented binary detects a substantial
// share of faults that the plain binary silently corrupts or crashes on.
func TestCFCDetectsBranchTargetFaults(t *testing.T) {
	base := compile(t, loopSrc)
	prot := base.Clone()
	if _, err := Protect(prot, 1); err != nil {
		t.Fatal(err)
	}

	goldenRes, golden := run(t, base, nil)
	if goldenRes.Trap != nil {
		t.Fatal(goldenRes.Trap)
	}

	const trials = 300
	type tally struct{ detected, corrupted, crashed, masked int }
	campaign := func(m *ir.Module) tally {
		var ta tally
		for i := 0; i < trials; i++ {
			rng := rand.New(rand.NewSource(int64(100 + i)))
			res, out := run(t, m, &branchFault{trigger: rng.Int63n(goldenRes.Dyn), pick: rng.Intn})
			switch {
			case res.Trap != nil && res.Trap.Kind == vm.TrapCheck:
				ta.detected++
			case res.Trap != nil:
				ta.crashed++
			default:
				same := len(out) == len(golden)
				for j := range golden {
					if out[j] != golden[j] {
						same = false
						break
					}
				}
				if same {
					ta.masked++
				} else {
					ta.corrupted++
				}
			}
		}
		return ta
	}

	plain := campaign(base)
	checked := campaign(prot)
	t.Logf("plain:   %+v", plain)
	t.Logf("checked: %+v", checked)

	if plain.detected != 0 {
		t.Error("plain binary cannot detect anything")
	}
	if checked.detected == 0 {
		t.Fatal("CFC detected no branch-target faults")
	}
	if checked.corrupted >= plain.corrupted {
		t.Errorf("CFC did not reduce silent corruptions: %d -> %d", plain.corrupted, checked.corrupted)
	}
}

func TestCFCQuietUnderRegisterFaultsGolden(t *testing.T) {
	// Fault-free and profiled-input runs must never fire CFC checks.
	prot := compile(t, loopSrc).Clone()
	if _, err := Protect(prot, 1); err != nil {
		t.Fatal(err)
	}
	res, _ := run(t, prot, nil)
	if res.Trap != nil {
		t.Fatalf("fault-free CFC run trapped: %v", res.Trap)
	}
	if res.CheckFails != 0 {
		t.Fatalf("CFC false positives: %d", res.CheckFails)
	}
}
