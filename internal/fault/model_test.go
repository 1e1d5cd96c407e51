package fault

// White-box fault-model registry tests: registry hygiene, the golden
// rng-stability pin for reg-flip (the registry must draw byte-identical
// plans to the pre-registry campaign path), the settled-plan soundness gate
// on convergence fast-forwarding, and the per-field journal mismatch
// reasons.

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/vm"
)

func TestModelRegistry(t *testing.T) {
	names := ModelNames()
	want := []string{ModelRegFlip, ModelBranchTarget, ModelMemFlip, ModelBurst, ModelStuckAt, ModelIntermittent}
	if len(names) != len(want) {
		t.Fatalf("ModelNames = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("ModelNames[%d] = %q, want %q (registration order)", i, names[i], want[i])
		}
	}
	// The empty name resolves to the paper's model.
	m, err := LookupModel("")
	if err != nil || m.Name() != ModelRegFlip {
		t.Fatalf("LookupModel(\"\") = %v, %v; want reg-flip", m, err)
	}
	// Unknown names enumerate the registered set.
	if _, err := LookupModel("cosmic-ray"); err == nil || !strings.Contains(err.Error(), ModelStuckAt) {
		t.Fatalf("unknown model error %v does not list the registry", err)
	}
	for _, bad := range []string{"", "Reg-Flip", "two words", "a+b"} {
		bad := bad
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterModel(%q) did not panic", bad)
				}
			}()
			RegisterModel(fakeStuck{name: bad})
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate RegisterModel did not panic")
			}
		}()
		RegisterModel(fakeStuck{name: ModelRegFlip})
	}()
}

// TestRegFlipDrawStability pins the registry's reg-flip draws to the
// pre-registry campaign draw: same per-trial seeding, same first-position
// trigger, then — at injection time, over the same rng stream — the
// written-register index and then the bit. Any drift here silently
// invalidates every published reg-flip campaign, so the reference stream is
// replicated inline rather than shared with the implementation.
func TestRegFlipDrawStability(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 2014
	const goldenDyn = 12345
	src := rand.NewSource(1).(rand.Source64)
	rng := rand.New(src)
	ref := rand.New(rand.NewSource(1))

	// A machine parked mid-loop, whose written registers Inject draws from.
	mod, err := lang.Compile("stuck", stuckSrc)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := vm.New(mod, vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mach.Reset()
	if res := mach.Run(vm.RunOptions{SuspendAtDyn: 200}); res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
		t.Fatalf("no suspension: %v", res.Trap)
	}
	n := mach.LiveRegCount()
	regs := make([]uint64, n)
	for i := range regs {
		regs[i], _ = mach.LiveReg(i)
	}
	if n < 2 {
		t.Fatalf("only %d written registers at the park", n)
	}

	for trial := 0; trial < 50; trial++ {
		p := drawPlan(MustModel(ModelRegFlip), cfg, goldenDyn, trial, src, rng)
		ref.Seed(cfg.Seed + int64(trial)*7919)
		if want := ref.Int63n(goldenDyn); p.TriggerDyn != want || p.Next() != want {
			t.Fatalf("trial %d: trigger %d (hook due %d), want %d", trial, p.TriggerDyn, p.Next(), want)
		}
		if !p.model.Inject(mach, p) {
			t.Fatalf("trial %d: nothing injected", trial)
		}
		wantSlot, wantBit := ref.Intn(n), ref.Intn(64)
		for i := range regs {
			got, _ := mach.LiveReg(i)
			want := regs[i]
			if i == wantSlot {
				want ^= 1 << uint(wantBit)
			}
			if got != want {
				t.Fatalf("trial %d: register %d = %#x, want %#x (flip of register %d, bit %d)", trial, i, got, want, wantSlot, wantBit)
			}
			mach.SetLiveReg(i, regs[i])
		}
	}
}

// stuckSrc drives the re-arm soundness test. Phase 1 overwrites out[0]
// every iteration, healing any corruption; phase 2 only reads it. A
// stuck-at fault on out[0] is therefore invisible at any point of phase 1
// where the last event was the store — the machine state is bit-identical
// to golden — yet the re-arms in phase 2 re-force the bit with no healing
// store left, corrupting the final output.
const stuckSrc = `
global int out[2];
void main() {
	int acc = 0;
	for (int i = 0; i < 100; i += 1) {
		acc = acc + i;
		out[0] = acc;
	}
	int sink = 0;
	for (int j = 0; j < 200; j += 1) {
		sink = sink + out[0];
	}
	out[1] = sink;
}
`

// fakeStuck is a deterministic re-arming model: a pinned address/mask/
// trigger stuck-at, so the test controls exactly when the fault strikes,
// heals and re-fires. A positive lasts retires the fault that many
// instructions after the trigger, like an intermittent window; zero keeps
// it stuck to the end. Not registered — used directly through drawPlan.
type fakeStuck struct {
	name    string
	trigger int64
	stride  int64
	lasts   int64
	addr    uint64
	mask    uint64
}

func (f fakeStuck) Name() string         { return f.name }
func (f fakeStuck) Title() string        { return "pinned stuck-at (test)" }
func (f fakeStuck) EngineInjected() bool { return false }

func (f fakeStuck) Draw(goldenDyn int64, rng *rand.Rand) *Plan {
	rng.Int63n(goldenDyn) // keep the stream shape: trigger is the first draw
	until := int64(math.MaxInt64)
	if f.lasts > 0 {
		until = f.trigger + f.lasts
	}
	return &Plan{TriggerDyn: f.trigger, pendingAt: f.trigger, addr: f.addr, mask: f.mask, stride: f.stride, until: until}
}

func (f fakeStuck) Inject(m *vm.Machine, p *Plan) bool {
	old := m.MemWord(p.addr)
	now := old ^ p.mask
	m.SetMemWord(p.addr, now)
	p.val = now & p.mask
	p.RelChange = vm.RelChange(ir.I64, old, now)
	return true
}

func (f fakeStuck) Rearm(m *vm.Machine, p *Plan) int64 {
	if m.Dyn() >= p.until {
		return -1
	}
	m.SetMemWord(p.addr, m.MemWord(p.addr)&^p.mask|p.val)
	return m.Dyn() + p.stride
}

// stuckRig is a campaign over stuckSrc with its golden run done, for
// driving fakeStuck plans through finishTrial directly.
type stuckRig struct {
	target            Target
	mod               *ir.Module
	cfg               Config
	goldenDyn, maxDyn int64
	c                 *campaign
	ws                *workerState
}

func newStuckRig(t *testing.T) *stuckRig {
	t.Helper()
	mod, err := lang.Compile("stuck", stuckSrc)
	if err != nil {
		t.Fatal(err)
	}
	target := Target{
		Name:       "stuck",
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
	c := &campaign{cfg: cfg, target: target, golden: golden, rep: &Report{GoldenCycles: res.Cycles}}
	return &stuckRig{target, mod, cfg, res.Dyn, res.Dyn * cfg.WatchdogFactor, c, c.newWorker(nil)}
}

// machine returns a fresh machine and trial 0's plan under model.
func (r *stuckRig) machine(t *testing.T, model Model) (*vm.Machine, *Plan) {
	t.Helper()
	mach, err := newMachine(r.target, r.mod, r.maxDyn, r.cfg.Engine)
	if err != nil {
		t.Fatal(err)
	}
	return mach, drawPlan(model, r.cfg, r.goldenDyn, 0, r.ws.src, r.ws.rng)
}

// snaps takes golden snapshots at a quarter, half and three quarters of
// the golden run.
func (r *stuckRig) snaps(t *testing.T) []*vm.Snapshot {
	t.Helper()
	snaps, err := PrefixSnapshots(r.target, r.mod, r.cfg, nil, r.maxDyn, []int64{r.goldenDyn / 4, r.goldenDyn / 2, 3 * r.goldenDyn / 4})
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

// TestRearmingModelNeverFalselyMasked proves the convergence gate is
// load-bearing: for a re-arming fault there exist snapshot crossings where
// the machine state is bit-identical to golden (an ungated MatchesSnapshot
// ladder would declare the trial Masked and stop), yet the fault re-fires
// later and corrupts the output. A plan that still owes re-arms is not
// settled, so finishTrial must pass every crossing and classify the trial
// by running it to completion.
func TestRearmingModelNeverFalselyMasked(t *testing.T) {
	r := newStuckRig(t)

	// out is the only global, laid out from address 1: out[0] lives at 1.
	// Strike early in phase 1, re-arm every 50 instructions.
	model := fakeStuck{name: "pinned-stuck", trigger: r.goldenDyn / 8, stride: 50, addr: 1, mask: 1 << 40}

	// First: exhibit a crossing where an ungated ladder would falsely mask.
	// Probe dyns between consecutive re-arms; at any of them where the last
	// event was phase 1's healing store, the state matches golden exactly.
	falselyGolden := 0
	for off := int64(10); off < model.stride; off += 10 {
		at := model.trigger + model.stride + off
		snaps, err := PrefixSnapshots(r.target, r.mod, r.cfg, nil, r.maxDyn, []int64{at})
		if err != nil {
			t.Fatal(err)
		}
		mach, plan := r.machine(t, model)
		opts := plan.runOptions(r.cfg, nil, nil)
		opts.SuspendAtDyn = at
		res := mach.Run(opts)
		if res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
			t.Fatalf("probe at %d: not suspended: %+v", at, res.Trap)
		}
		if plan.Injected && mach.MatchesSnapshot(snaps[0]) {
			falselyGolden++
		}
	}
	if falselyGolden == 0 {
		t.Fatal("no probe crossing matched golden state; the test exercises nothing")
	}

	// Second: the real classification must not be Masked — and must be
	// identical with and without the snapshot ladder, because the plan
	// never settles.
	m1, p1 := r.machine(t, model)
	tr1, cyc1, to1 := r.c.finishOn(m1, p1, r.snaps(t))
	m2, p2 := r.machine(t, model)
	tr2, cyc2, to2 := r.c.finishOn(m2, p2, nil)

	if tr1 != tr2 || cyc1 != cyc2 || to1 != to2 {
		t.Fatalf("ladder %+v (cycles %d, timeout %v) vs plain %+v (cycles %d, timeout %v)", tr1, cyc1, to1, tr2, cyc2, to2)
	}
	if tr1.Outcome == Masked {
		t.Fatalf("re-arming trial classified Masked: %+v (falsely-golden crossings existed: %d)", tr1, falselyGolden)
	}
	t.Logf("outcome %v, %d/%d probed crossings matched golden", tr1.Outcome, falselyGolden, (model.stride-10)/10+1)
}

// TestRetiredRearmFastForwards is the other side of the gate: a re-arming
// fault whose window closes in phase 1 owes nothing more once it retires,
// and the next healing store makes the whole state golden. Its plan is
// settled, so the trial must end at the first ladder crossing — short of
// the golden run's end — with the Trial and cycles a full run gives.
func TestRetiredRearmFastForwards(t *testing.T) {
	r := newStuckRig(t)
	model := fakeStuck{name: "pinned-window", trigger: r.goldenDyn / 8, stride: 50, lasts: 100, addr: 1, mask: 1 << 40}

	m1, p1 := r.machine(t, model)
	tr1, cyc1, to1 := r.c.finishOn(m1, p1, r.snaps(t))
	m2, p2 := r.machine(t, model)
	tr2, cyc2, to2 := r.c.finishOn(m2, p2, nil)

	if tr1 != tr2 || cyc1 != cyc2 || to1 != to2 {
		t.Fatalf("ladder %+v (cycles %d, timeout %v) vs plain %+v (cycles %d, timeout %v)", tr1, cyc1, to1, tr2, cyc2, to2)
	}
	if tr1.Outcome != Masked {
		t.Fatalf("retired fault classified %v, want Masked", tr1.Outcome)
	}
	if !p1.settled() {
		t.Fatal("the retired plan is not settled")
	}
	if m1.Dyn() >= r.goldenDyn {
		t.Fatalf("the ladder run stopped at dyn %d, not before the golden end %d: it never fast-forwarded", m1.Dyn(), r.goldenDyn)
	}
}

// TestJournalMismatchReasons pins the per-field diagnostics a rejected
// resume reports, the fault-model field included.
func TestJournalMismatchReasons(t *testing.T) {
	cases := []struct {
		mutate func(h *journalHeader)
		want   string
	}{
		{func(h *journalHeader) { h.Model = ModelStuckAt }, `fault model "stuck-at"`},
		{func(h *journalHeader) { h.Seed = 7 }, "seed 7"},
		{func(h *journalHeader) { h.Technique = "FullDup" }, `technique "FullDup"`},
		{func(h *journalHeader) { h.Workload = "other" }, `workload "other"`},
		{func(h *journalHeader) { h.Trials = 99 }, "trial count 99"},
		{func(h *journalHeader) { h.GoldenDyn = 1 }, "module or inputs changed"},
		{func(h *journalHeader) { h.ShardStart, h.ShardEnd = 2, 6 }, "shard range [2,6)"},
		{func(h *journalHeader) { h.Disabled = 3 }, "disabled-check count 3"},
	}
	for _, c := range cases {
		h := testHeader()
		c.mutate(h)
		d := h.mismatch(testHeader())
		if !strings.Contains(d, c.want) {
			t.Errorf("mismatch = %q, want it to contain %q", d, c.want)
		}
	}
	if d := testHeader().mismatch(testHeader()); d != "" {
		t.Errorf("identical headers mismatch: %q", d)
	}
}
