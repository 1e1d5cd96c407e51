package fault

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
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
		tr1, cyc1, to1 := c.finishOn(solo, p1, nil)

		p2 := drawPlan(MustModel(cfg.Model), cfg, goldenDyn, trial, ws.src, ws.rng)
		conv.Reset()
		tr2, cyc2, to2 := c.finishOn(conv, p2, snaps)

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
	tr1, cyc1, _ := c.finishOn(solo, plan(), nil)
	conv, err := newMachine(target, mod, maxDyn, cfg.Engine)
	if err != nil {
		t.Fatal(err)
	}
	p2 := plan()
	tr2, cyc2, _ := c.finishOn(conv, p2, snaps)

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

// deadWordSrc keeps two globals beside its output around two loops: once
// is written and read before the first loop and never accessed again; tmp
// is read before the first loop, stored again after it, and read into the
// output after the second. Globals are laid out from address 1 in
// declaration order.
const deadWordSrc = `
global int in[1];
global int once[1];
global int tmp[1];
global int out[4];
void main() {
	once[0] = in[0] + 1;
	tmp[0] = once[0] * 3;
	int acc = tmp[0] & 255;
	for (int i = 0; i < 400; i += 1) {
		acc = acc + ((i * 7) & 255);
	}
	tmp[0] = acc;
	int s = 0;
	for (int j = 0; j < 40; j += 1) {
		s = s + j;
	}
	out[0] = tmp[0] + s;
}
`

const (
	deadWordOnce = 2 // once[0]
	deadWordTmp  = 3 // tmp[0]
)

// memRig is a memory-model campaign over deadWordSrc with its golden run
// done the way Run does it: a ladder eight rungs per golden run, and the
// access masks over it.
type memRig struct {
	target            Target
	mod               *ir.Module
	goldenDyn, maxDyn int64
	snaps             []*vm.Snapshot
	c                 *campaign
}

func newMemRig(t *testing.T) *memRig {
	t.Helper()
	mod, err := lang.Compile("deadword", deadWordSrc)
	if err != nil {
		t.Fatal(err)
	}
	target := Target{
		Name:       "deadword",
		Output:     "out",
		Bind:       func(m *vm.Machine) error { return m.BindInputInts("in", []int64{0x12345}) },
		Measure:    func(golden, test []uint64) float64 { return 0 },
		Acceptable: func(float64) bool { return false },
	}
	cfg := DefaultConfig()
	gm, err := newMachine(target, mod, 0, cfg.Engine)
	if err != nil {
		t.Fatal(err)
	}
	goldenDyn := gm.Run(vm.RunOptions{}).Dyn
	gm.Reset()
	ctx := WithLadderProbe(context.Background(), &LadderProbe{Interval: goldenDyn / 8})
	res, l, err := goldenRun(ctx, gm, cfg, true, target.Output)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := gm.ReadGlobal(target.Output)
	if err != nil {
		t.Fatal(err)
	}
	snaps, masks := l.ladder()
	if len(snaps) < 2 || masks == nil {
		t.Fatalf("golden run built %d snapshots, masks %v", len(snaps), masks != nil)
	}
	c := &campaign{cfg: cfg, target: target, golden: golden, rep: &Report{GoldenCycles: res.Cycles}, masks: masks}
	return &memRig{target, mod, res.Dyn, res.Dyn * cfg.WatchdogFactor, snaps, c}
}

// run drives plan (rebuilt per run) through finishTrial twice, with the
// ladder and without, and requires the same Trial and cycles. It returns
// the Trial, the laddered machine and its plan.
func (r *memRig) run(t *testing.T, plan func() *Plan) (Trial, *vm.Machine, *Plan) {
	t.Helper()
	solo, err := newMachine(r.target, r.mod, r.maxDyn, r.c.cfg.Engine)
	if err != nil {
		t.Fatal(err)
	}
	tr1, cyc1, _ := r.c.finishOn(solo, plan(), nil)
	conv, err := newMachine(r.target, r.mod, r.maxDyn, r.c.cfg.Engine)
	if err != nil {
		t.Fatal(err)
	}
	p := plan()
	tr2, cyc2, _ := r.c.finishOn(conv, p, r.snaps)
	if tr1 != tr2 || cyc1 != cyc2 {
		t.Fatalf("full suffix %+v (%d cycles), laddered %+v (%d cycles)", tr1, cyc1, tr2, cyc2)
	}
	if tr1.Outcome == Masked && cyc1 != r.c.rep.GoldenCycles {
		t.Fatalf("masked trial cost %d cycles, golden %d", cyc1, r.c.rep.GoldenCycles)
	}
	return tr1, conv, p
}

// endsAtFirstRung fails unless the laddered trial stopped at the first
// snapshot after trigger.
func (r *memRig) endsAtFirstRung(t *testing.T, m *vm.Machine, trigger int64) {
	t.Helper()
	for _, s := range r.snaps {
		if s.Dyn() > trigger {
			if !m.Suspended() || m.Dyn() != s.Dyn() {
				t.Fatalf("trial ran to dyn %d (suspended %v); it must end at the first snapshot after the injection, dyn %d",
					m.Dyn(), m.Suspended(), s.Dyn())
			}
			return
		}
	}
	t.Fatal("no snapshot after the trigger")
}

// TestConvergenceShortCircuitDeadWord flips a bit of tmp inside the loop.
// The word keeps the flip until the golden run stores tmp again after the
// loop, so an exact memory compare matches no snapshot in between; tmp's
// next golden access is that store, so the live-memory compare tolerates
// it, and the trial must end at the first snapshot after the injection,
// with the Trial and cycle count of the full suffix.
func TestConvergenceShortCircuitDeadWord(t *testing.T) {
	r := newMemRig(t)
	trigger := r.goldenDyn / 16
	plan := func() *Plan {
		return &Plan{TriggerDyn: trigger, pendingAt: trigger, model: fakeStuck{name: "pinned-flip"},
			addr: deadWordTmp, mask: 1 << 40}
	}
	tr, m, p := r.run(t, plan)
	if !p.settled() || tr.Outcome != Masked || tr.SDC {
		t.Fatalf("the flip must fire, settle and be masked: settled %v, trial %+v", p.settled(), tr)
	}
	r.endsAtFirstRung(t, m, trigger)
}

// TestConvergenceStuckAtUnloadedWord: a stuck-at fault never settles, but
// one on once — outside the output and never loaded again — can change
// nothing the run reads, so its trial must end at the first snapshot after
// the strike. The same fault on tmp, which the golden run stores and,
// re-arms later, loads into the output, must corrupt the output.
func TestConvergenceStuckAtUnloadedWord(t *testing.T) {
	r := newMemRig(t)
	trigger := r.goldenDyn / 16
	stuck := func(addr uint64) func() *Plan {
		return func() *Plan {
			return &Plan{TriggerDyn: trigger, pendingAt: trigger, model: fakeStuck{name: "pinned-stuck"},
				addr: addr, mask: 1 << 40, stride: 50, until: math.MaxInt64}
		}
	}
	tr, m, p := r.run(t, stuck(deadWordOnce))
	if p.settled() || !p.Injected || tr.Outcome != Masked || tr.SDC {
		t.Fatalf("stuck-at on once: injected %v, settled %v (want true, false), trial %+v (want Masked)", p.Injected, p.settled(), tr)
	}
	r.endsAtFirstRung(t, m, trigger)

	if tr, _, _ = r.run(t, stuck(deadWordTmp)); !tr.SDC {
		t.Fatalf("stuck-at on tmp: trial %+v; it must corrupt the output", tr)
	}
}
