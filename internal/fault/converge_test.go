package fault

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/vm"
)

// convergeSrc is a loop-heavy workload for the convergence fast-forward
// tests: most register corruptions land in short-lived loop temporaries, so
// under FullDup the bulk of trials are masked and re-converge to the golden
// state within an iteration or two of the injection.
const convergeSrc = `
global int out[4];
void main() {
	int acc = 0;
	for (int i = 0; i < 400; i += 1) {
		acc = acc + ((i * 7) & 255);
	}
	out[0] = acc;
}
`

// TestConvergenceShortCircuit drives finishTrial with the snapshot ladder
// against finishTrial without it across many trials of the same fault
// stream: every trial's record and cycle count must be bit-identical, and
// at least some masked trials must have actually short-circuited —
// observable as the machine still being suspended (Snapshot succeeds) at a
// dyn short of the run's end — or the fast-forward is dead code. Wherever
// the shortcut fires, the full-suffix twin must have cost exactly the
// golden run's cycles: that is what restart recovery records for a
// short-circuited trial.
func TestConvergenceShortCircuit(t *testing.T) {
	mod, err := lang.Compile("converge", convergeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Protect(mod, core.SchemeFullDup, nil, core.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	target := Target{
		Name:       "converge",
		Output:     "out",
		Bind:       func(m *vm.Machine) error { return nil },
		Measure:    func(golden, test []uint64) float64 { return 0 },
		Acceptable: func(float64) bool { return false },
	}
	cfg := DefaultConfig()

	gm, err := newMachine(target, mod, 0, cfg.Engine)
	if err != nil {
		t.Fatal(err)
	}
	res := gm.Run(vm.RunOptions{})
	if res.Trap != nil {
		t.Fatalf("golden run trapped: %v", res.Trap)
	}
	golden, err := gm.ReadGlobal(target.Output)
	if err != nil {
		t.Fatal(err)
	}
	goldenDyn := res.Dyn
	maxDyn := goldenDyn * cfg.WatchdogFactor

	snapAt := []int64{goldenDyn / 4, goldenDyn / 2, 3 * goldenDyn / 4}
	snaps, err := PrefixSnapshots(target, mod, cfg, nil, maxDyn, snapAt)
	if err != nil {
		t.Fatal(err)
	}

	solo, err := newMachine(target, mod, maxDyn, cfg.Engine)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := newMachine(target, mod, maxDyn, cfg.Engine)
	if err != nil {
		t.Fatal(err)
	}

	c := &campaign{cfg: cfg, target: target, golden: golden, rep: &Report{GoldenCycles: res.Cycles}}
	ws := c.newWorker(nil)
	shortCircuits, masked := 0, 0
	for trial := 0; trial < 60; trial++ {
		p1 := drawPlan(MustModel(cfg.Model), cfg, goldenDyn, trial, ws.src, ws.rng)
		solo.Reset()
		tr1, cyc1, to1 := c.finishTrial(solo, p1, nil, nil)

		p2 := drawPlan(MustModel(cfg.Model), cfg, goldenDyn, trial, ws.src, ws.rng)
		conv.Reset()
		tr2, cyc2, to2 := c.finishTrial(conv, p2, nil, snaps)

		if tr1 != tr2 || cyc1 != cyc2 || to1 != to2 {
			t.Fatalf("trial %d: solo %+v (cycles %d, timeout %v) vs converging %+v (cycles %d, timeout %v)",
				trial, tr1, cyc1, to1, tr2, cyc2, to2)
		}
		if tr1.Outcome == Masked {
			masked++
		}
		// A machine that short-circuited is still suspended mid-run; only a
		// suspended fast-engine machine can be snapshotted.
		if _, err := conv.Snapshot(); err == nil {
			if tr2.Outcome != Masked {
				t.Fatalf("trial %d: short-circuited with outcome %v", trial, tr2.Outcome)
			}
			if cyc1 != res.Cycles {
				t.Fatalf("trial %d: short-circuited, but its full suffix cost %d cycles, golden %d", trial, cyc1, res.Cycles)
			}
			shortCircuits++
		}
	}
	if masked == 0 {
		t.Fatal("workload produced no masked trials; the test exercises nothing")
	}
	if shortCircuits == 0 {
		t.Fatal("no trial short-circuited through a snapshot crossing")
	}
	t.Logf("%d/60 trials masked, %d short-circuited", masked, shortCircuits)
}

// deadValueSrc computes seed once, reads it once, and then loops long
// enough for the convergence ladder to cross the loop: after its one use,
// seed is dead but stays in its register slot for the rest of main.
const deadValueSrc = `
global int in[1];
global int out[4];
void main() {
	int seed = in[0] * 3 + 1;
	int acc = seed & 255;
	for (int i = 0; i < 400; i += 1) {
		acc = acc + ((i * 7) & 255);
	}
	out[0] = acc;
}
`

// TestConvergenceShortCircuitDeadValue flips a bit of a value that is dead
// after its last use. The flipped bits stay in the slot to the end of the
// run, so a compare of every written slot never matches golden again; the
// live-state compare ignores the dead slot, so the trial must end at the
// first snapshot after the injection, with the Trial and cycle count of
// the full suffix.
func TestConvergenceShortCircuitDeadValue(t *testing.T) {
	const seedIn = 0x12345
	mod, err := lang.Compile("deadvalue", deadValueSrc)
	if err != nil {
		t.Fatal(err)
	}
	target := Target{
		Name:       "deadvalue",
		Output:     "out",
		Bind:       func(m *vm.Machine) error { return m.BindInputInts("in", []int64{seedIn}) },
		Measure:    func(golden, test []uint64) float64 { return 0 },
		Acceptable: func(float64) bool { return false },
	}
	cfg := DefaultConfig()
	gm, err := newMachine(target, mod, 0, cfg.Engine)
	if err != nil {
		t.Fatal(err)
	}
	res := gm.Run(vm.RunOptions{})
	if res.Trap != nil {
		t.Fatalf("golden run trapped: %v", res.Trap)
	}
	golden, err := gm.ReadGlobal(target.Output)
	if err != nil {
		t.Fatal(err)
	}
	goldenDyn, maxDyn := res.Dyn, res.Dyn*cfg.WatchdogFactor
	snaps, err := PrefixSnapshots(target, mod, cfg, nil, maxDyn, []int64{goldenDyn / 4, goldenDyn / 2, 3 * goldenDyn / 4})
	if err != nil {
		t.Fatal(err)
	}

	// Find seed's place in the written-slot list at the trigger, inside
	// the loop and before the first snapshot.
	trigger := goldenDyn / 8
	probe, err := newMachine(target, mod, maxDyn, cfg.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if r := probe.Run(vm.RunOptions{SuspendAtDyn: trigger}); r.Trap == nil || r.Trap.Kind != vm.TrapSuspended {
		t.Fatalf("probe did not suspend at the trigger: %v", r.Trap)
	}
	slot := -1
	for i := range probe.LiveRegCount() {
		if bits, _ := probe.LiveReg(i); bits == seedIn*3+1 {
			if slot >= 0 {
				t.Fatal("seed's value is not unique among the written registers")
			}
			slot = i
		}
	}
	if slot < 0 {
		t.Fatal("seed's value is not among the written registers at the trigger")
	}
	plan := func() *Plan {
		return &Plan{TriggerDyn: trigger, pendingAt: trigger, model: pinnedFlip{slot: slot, bit: 40}}
	}

	c := &campaign{cfg: cfg, target: target, golden: golden, rep: &Report{GoldenCycles: res.Cycles}}
	solo, err := newMachine(target, mod, maxDyn, cfg.Engine)
	if err != nil {
		t.Fatal(err)
	}
	tr1, cyc1, _ := c.finishTrial(solo, plan(), nil, nil)
	conv, err := newMachine(target, mod, maxDyn, cfg.Engine)
	if err != nil {
		t.Fatal(err)
	}
	p2 := plan()
	tr2, cyc2, _ := c.finishTrial(conv, p2, nil, snaps)

	if !p2.Injected || tr1.Outcome != Masked {
		t.Fatalf("the flip must fire and be masked: injected %v, outcome %v", p2.Injected, tr1.Outcome)
	}
	if tr1 != tr2 || cyc1 != cyc2 || cyc1 != res.Cycles {
		t.Fatalf("full suffix %+v (%d cycles), converging %+v (%d cycles), golden %d cycles", tr1, cyc1, tr2, cyc2, res.Cycles)
	}
	if !conv.Suspended() || conv.Dyn() != snaps[0].Dyn() {
		t.Fatalf("trial ran to dyn %d (suspended %v); it must end at the first snapshot after the injection, dyn %d",
			conv.Dyn(), conv.Suspended(), snaps[0].Dyn())
	}
}

// pinnedFlip is reg-flip with its space draws pinned: it flips bit bit of
// written register slot. Not registered; tests build its plans directly.
type pinnedFlip struct {
	transientBase
	slot, bit int
}

func (pinnedFlip) Name() string                 { return "pinned-flip" }
func (pinnedFlip) Title() string                { return "pinned register flip (test)" }
func (pinnedFlip) Draw(int64, *rand.Rand) *Plan { panic("fault: pinnedFlip plans are built directly") }

func (f pinnedFlip) Inject(m *vm.Machine, p *Plan) bool {
	old, ty := m.LiveReg(f.slot)
	now := old ^ 1<<uint(f.bit)
	m.SetLiveReg(f.slot, now)
	p.RelChange = vm.RelChange(ty, old, now)
	return true
}
