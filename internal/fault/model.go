package fault

// The fault-model registry — the campaign engine's second axis, orthogonal
// to the protection-scheme registry in internal/core. A Model decides what
// one trial corrupts; everything downstream (checkpoint binning, golden
// cursor positioning, convergence fast-forwarding, journaling, the difftest oracle,
// the experiments sweep, both CLIs) enumerates the registry, so a newly
// registered model becomes a first-class campaign with no further wiring.
//
// One injection mechanism serves every model: the trial's Plan is the
// run's vm.FaultHook, so both engines fire it from their per-instruction
// event point — the point a run suspends at — and the model's Inject and
// Rearm corrupt architectural state there through the vm's fault-access
// surface. A re-arming model (stuck-at, intermittent) reschedules the hook
// and fires again, all within one Run; branch-target's hook walks forward
// to the first branch and redirects it (vm.Machine.RedirectBranch). Every
// model runs on both engines.
//
// Soundness rule: convergence fast-forwarding's short-circuits prove "the
// future is golden" from "the present live state is golden". That
// implication holds once the plan can change nothing more: its fault has
// fired and it owes no further hook (pendingAt < 0). A re-arming plan
// (stuck-at, or intermittent with its window still open) can only keep
// forcing its one memory word, so it may fast-forward too, on a stronger
// rule: the golden run must never load that word again, and the word must
// lie outside the output — see finishTrial.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/ir"
	"repro/internal/vm"
)

// Model is one registered fault model.
type Model interface {
	// Name is the canonical registry identifier ("mem-flip").
	Name() string
	// Title is the human-readable label ("Memory bit flip").
	Title() string
	// Draw draws one trial's plan from a freshly seeded per-trial rng.
	// Space draws (slot, address, bit, width) must be deferred to injection
	// time, when the machine state they condition on exists. A plan the
	// hook is due at pendingAt: the trigger for every model but
	// branch-target (hookPlan).
	Draw(goldenDyn int64, rng *rand.Rand) *Plan
	// EngineInjected is true for reg-flip and branch-target and false for
	// the rest. Nothing in this module acts on it: only the benchmark's
	// correctness gate reads it, to run those two models' reference
	// campaigns on the tree engine.
	EngineInjected() bool
	// Inject corrupts the machine at the plan's injection point, from
	// inside the hook. It returns false when nothing eligible is available
	// yet — e.g. no written register, or (branch-target) no branch — and
	// the hook retries one instruction later.
	Inject(m *vm.Machine, p *Plan) bool
	// Rearm re-forces the corruption at a re-arm point and returns the
	// next re-arm dyn, or -1 once the fault has retired.
	// Called only for plans drawn with a positive stride: those are the
	// plans whose fault keeps firing after its first strike (the stuck-at
	// class).
	Rearm(m *vm.Machine, p *Plan) int64
}

// Plan is one trial's drawn fault: the trigger plus the state its model
// needs to fire and, for re-arming models, keep firing. A Plan is the
// trial run's vm.FaultHook.
type Plan struct {
	// TriggerDyn is the injection point in dynamic instructions — always
	// the first rng draw after per-trial seeding.
	TriggerDyn int64
	// Injected reports whether the fault has fired; RelChange is the
	// corrupted value's relative change (0 for branch-target).
	Injected  bool
	RelChange float64

	model Model
	// rng feeds the model's lazy space draws at injection time; the worker
	// re-seeds it per trial, so draws replay identically on every execution
	// path (reset or cursor-positioned) — each fires the hook on the same
	// machine state before the same draw.
	rng *rand.Rand
	// pendingAt is the next dyn the hook is due at — the injection point
	// before the fault fires, then the next re-arm point while the fault
	// re-arms; -1 when nothing is owed. The drawn plan's pendingAt is the
	// earliest dyn whose machine state the injection can observe, so the
	// scheduler positions the trial there.
	pendingAt int64

	// Model scratch.
	addr   uint64 // corrupted memory word (mem-flip, burst, stuck-at)
	mask   uint64 // corrupted bit(s) within the word
	val    uint64 // stuck-at: bit values re-forced under mask
	until  int64  // intermittent: re-arming stops once dyn reaches this
	stride int64  // re-arm cadence in dynamic instructions; 0 for a one-shot fault
}

// Model returns the model that drew this plan.
func (p *Plan) Model() Model { return p.model }

// settled reports whether the plan can change nothing more: its fault has
// fired and no hook is owed. Only a settled trial may fast-forward on a
// golden match (the soundness rule above).
func (p *Plan) settled() bool { return p.Injected && p.pendingAt < 0 }

// Next implements vm.FaultHook.
func (p *Plan) Next() int64 {
	if p.pendingAt < 0 {
		return math.MaxInt64
	}
	return p.pendingAt
}

// Fire implements vm.FaultHook: the engine calls it at the first
// fault-eligible instruction at or past pendingAt. Before the fault fires
// it injects, or retries at the next instruction when nothing is eligible;
// after, it re-arms.
func (p *Plan) Fire(m *vm.Machine) {
	if p.Injected {
		p.pendingAt = p.model.Rearm(m, p)
		return
	}
	if !p.model.Inject(m, p) {
		p.pendingAt = m.Dyn() + 1
		return
	}
	p.Injected = true
	p.pendingAt = -1
	if p.stride > 0 {
		p.pendingAt = m.Dyn() + p.stride
	}
}

// runOptions are the options of a trial run under the plan.
func (p *Plan) runOptions(cfg Config, disabled map[int]bool, timeout <-chan struct{}) vm.RunOptions {
	return vm.RunOptions{Hook: p, DisabledChecks: disabled, Stop: timeout, Fuse: fuseMode(cfg)}
}

// ---------------------------------------------------------------------------
// Registry. Mirrors internal/core's scheme registry: init-time registration,
// panic on invalid or duplicate names, enumeration in registration order.

var (
	modelsByName = map[string]Model{}
	modelOrder   []string
)

// RegisterModel adds a fault model to the registry. It panics on invalid or
// duplicate names — registration is an init-time, programmer-facing act.
func RegisterModel(m Model) {
	name := m.Name()
	if name == "" || strings.ContainsAny(name, "+ \t\n") || name != strings.ToLower(name) {
		panic(fmt.Sprintf("fault: invalid model name %q (lowercase, no spaces or '+')", name))
	}
	if _, dup := modelsByName[name]; dup {
		panic(fmt.Sprintf("fault: model %q already registered", name))
	}
	modelsByName[name] = m
	modelOrder = append(modelOrder, name)
}

// Models returns every registered fault model in registration order.
func Models() []Model {
	out := make([]Model, len(modelOrder))
	for i, n := range modelOrder {
		out[i] = modelsByName[n]
	}
	return out
}

// ModelNames returns the registered model names in registration order.
func ModelNames() []string {
	return append([]string(nil), modelOrder...)
}

// LookupModel resolves a model name; "" means the default (reg-flip, the
// paper's model). Unknown names error with the registered set, sorted.
func LookupModel(name string) (Model, error) {
	if name == "" {
		name = ModelRegFlip
	}
	if m, ok := modelsByName[name]; ok {
		return m, nil
	}
	known := append([]string(nil), modelOrder...)
	sort.Strings(known)
	return nil, fmt.Errorf("fault: unknown fault model %q (registered: %s)", name, strings.Join(known, ", "))
}

// MustModel is LookupModel for static names; it panics on unknown ones.
func MustModel(name string) Model {
	m, err := LookupModel(name)
	if err != nil {
		panic(err)
	}
	return m
}

// Registered model names.
const (
	ModelRegFlip      = "reg-flip"
	ModelBranchTarget = "branch-target"
	ModelMemFlip      = "mem-flip"
	ModelBurst        = "burst"
	ModelStuckAt      = "stuck-at"
	ModelIntermittent = "intermittent"
)

func init() {
	RegisterModel(regFlipModel{})
	RegisterModel(branchTargetModel{})
	RegisterModel(memFlipModel{})
	RegisterModel(burstModel{})
	RegisterModel(stuckAtModel{})
	RegisterModel(intermittentModel{})
}

// memoryModel marks the models whose faults can land in memory. A cursor
// campaign under one records the golden run's memory accesses over its
// ladder (vm.AccessMasks), so a trial whose only differences are dead
// memory words still converges; every other campaign records nothing. The
// marker stays because recording for every model does not pay: under
// reg-flip on the Figure 11 grid it converged 2-5 more of 5200 trials, cut
// the suffix instructions by at most 0.23%, and raised the benchmark's
// peak RSS by 2.4-4.0 MB (EXPERIMENTS.md).
type memoryModel interface{ corruptsMemory() }

func (memFlipModel) corruptsMemory() {}
func (burstModel) corruptsMemory()   {}
func (stuckAtModel) corruptsMemory() {} // intermittent too, by embedding

// transientBase supplies the defaults shared by transient models; the rest
// override what differs.
type transientBase struct{}

func (transientBase) EngineInjected() bool           { return false }
func (transientBase) Rearm(*vm.Machine, *Plan) int64 { panic("fault: model does not re-arm") }

// hookPlan draws a plan's trigger and makes its hook due there: the Draw
// of every model but branch-target.
func hookPlan(goldenDyn int64, rng *rand.Rand) *Plan {
	t := rng.Int63n(goldenDyn)
	return &Plan{TriggerDyn: t, pendingAt: t, rng: rng}
}

// ---------------------------------------------------------------------------
// reg-flip: the paper's model. One bit of one written register of the
// executing frame, flipped once. The draws — trigger, then slot, then bit —
// are the ones the pre-registry drawPlan made, which the golden
// rng-stability test pins.

type regFlipModel struct{ transientBase }

func (regFlipModel) Name() string         { return ModelRegFlip }
func (regFlipModel) Title() string        { return "Register bit flip" }
func (regFlipModel) EngineInjected() bool { return true }

func (regFlipModel) Draw(goldenDyn int64, rng *rand.Rand) *Plan { return hookPlan(goldenDyn, rng) }

func (regFlipModel) Inject(m *vm.Machine, p *Plan) bool {
	n := m.LiveRegCount()
	if n == 0 {
		return false // nothing written yet; the fault lands in dead space
	}
	i := p.rng.Intn(n)
	old, ty := m.LiveReg(i)
	now := old ^ 1<<uint(p.rng.Intn(64))
	m.SetLiveReg(i, now)
	p.RelChange = vm.RelChange(ty, old, now)
	return true
}

// branch-target: the control-flow corruption class the paper defers to
// signature-based checking. The first branch whose post-increment dyn
// reaches the trigger goes to a random block of its function. The hook is
// due one instruction before the trigger, the branch's pre-increment dyn,
// and walks forward to the first br or jmp; its block draw is the plan's
// only space draw.

type branchTargetModel struct{ transientBase }

func (branchTargetModel) Name() string         { return ModelBranchTarget }
func (branchTargetModel) Title() string        { return "Branch-target corruption" }
func (branchTargetModel) EngineInjected() bool { return true }

func (branchTargetModel) Draw(goldenDyn int64, rng *rand.Rand) *Plan {
	t := rng.Int63n(goldenDyn)
	return &Plan{TriggerDyn: t, pendingAt: max(t-1, 0), rng: rng}
}

func (branchTargetModel) Inject(m *vm.Machine, p *Plan) bool { return m.RedirectBranch(p.rng.Intn) }

// ---------------------------------------------------------------------------
// mem-flip: one bit of one word of the snapshot-visible memory image —
// globals plus the live stack, addresses [1, MemUsed()). A strike in DRAM
// rather than the register file: the corruption persists until the program
// overwrites the word, but the cell itself stays healthy (transient).

type memFlipModel struct{ transientBase }

func (memFlipModel) Name() string  { return ModelMemFlip }
func (memFlipModel) Title() string { return "Memory bit flip" }

func (memFlipModel) Draw(goldenDyn int64, rng *rand.Rand) *Plan { return hookPlan(goldenDyn, rng) }

func (memFlipModel) Inject(m *vm.Machine, p *Plan) bool { return memStrike(m, p) }

// ---------------------------------------------------------------------------
// burst: 2–8 adjacent bits of one register or one memory word, corrupted in
// a single strike (a multi-cell upset along a physical row). The space draw
// picks the domain first; an empty domain falls over to the other, and a
// machine with neither written registers nor a memory image retries at the
// next instruction.

type burstModel struct{ transientBase }

func (burstModel) Name() string  { return ModelBurst }
func (burstModel) Title() string { return "Multi-bit burst" }

func (burstModel) Draw(goldenDyn int64, rng *rand.Rand) *Plan { return hookPlan(goldenDyn, rng) }

func (burstModel) Inject(m *vm.Machine, p *Plan) bool {
	width := 2 + p.rng.Intn(7)      // 2..8 adjacent bits
	start := p.rng.Intn(65 - width) // the burst fits inside one word
	mask := (uint64(1)<<uint(width) - 1) << uint(start)
	inReg := p.rng.Intn(2) == 0
	if inReg && m.LiveRegCount() == 0 {
		inReg = false
	}
	if !inReg && m.MemUsed() <= 1 {
		if m.LiveRegCount() == 0 {
			return false
		}
		inReg = true
	}
	p.mask = mask
	if inReg {
		i := p.rng.Intn(m.LiveRegCount())
		old, ty := m.LiveReg(i)
		now := old ^ mask
		m.SetLiveReg(i, now)
		p.RelChange = vm.RelChange(ty, old, now)
		return true
	}
	addr := 1 + uint64(p.rng.Int63n(int64(m.MemUsed()-1)))
	old := m.MemWord(addr)
	now := old ^ mask
	m.SetMemWord(addr, now)
	p.addr = addr
	p.RelChange = vm.RelChange(ir.I64, old, now)
	return true
}

// ---------------------------------------------------------------------------
// stuck-at: a memory cell whose bit is stuck at the flipped value. The
// first strike flips one bit of one word of the memory image; the hook then
// fires every rearmStride instructions and re-forces the bit, so program
// writes that would heal the word are re-corrupted until the trial retires.

type stuckAtModel struct{ transientBase }

func (stuckAtModel) Name() string  { return ModelStuckAt }
func (stuckAtModel) Title() string { return "Stuck-at bit" }

func (stuckAtModel) Draw(goldenDyn int64, rng *rand.Rand) *Plan {
	p := hookPlan(goldenDyn, rng)
	p.stride = rearmStride(goldenDyn)
	p.until = math.MaxInt64 // stuck until the program retires
	return p
}

func (stuckAtModel) Inject(m *vm.Machine, p *Plan) bool { return memStrike(m, p) }

func (stuckAtModel) Rearm(m *vm.Machine, p *Plan) int64 {
	if m.Dyn() >= p.until {
		return -1
	}
	m.SetMemWord(p.addr, m.MemWord(p.addr)&^p.mask|p.val)
	return m.Dyn() + p.stride
}

// memStrike is the memory strike of mem-flip, stuck-at and intermittent:
// flip one bit of one word of the memory image (draws: address, then bit)
// and record the word, the bit and the bit's new value, which the stuck-at
// re-arms keep forcing. It misses while there is no image yet (no globals,
// nothing alloca'd).
func memStrike(m *vm.Machine, p *Plan) bool {
	used := m.MemUsed()
	if used <= 1 {
		return false
	}
	addr := 1 + uint64(p.rng.Int63n(int64(used-1)))
	bit := p.rng.Intn(64)
	old := m.MemWord(addr)
	now := old ^ (1 << uint(bit))
	m.SetMemWord(addr, now)
	p.addr, p.mask = addr, 1<<uint(bit)
	p.val = now & p.mask
	p.RelChange = vm.RelChange(ir.I64, old, now)
	return true
}

// rearmStride is the re-arm cadence: coarse enough that a re-arming trial
// costs a bounded number of hook firings (the watchdog caps runs at a
// multiple of goldenDyn), fine enough that short-lived overwrites still get
// re-struck.
func rearmStride(goldenDyn int64) int64 {
	if s := goldenDyn / 64; s > 1 {
		return s
	}
	return 1
}

// ---------------------------------------------------------------------------
// intermittent: a duration-bounded stuck-at — the cell misbehaves for a
// random window after the strike, then heals (marginal hardware, not a hard
// fault). The duration is drawn lazily at injection time, after the space
// draws, keeping the trigger the first draw of the trial.

type intermittentModel struct{ stuckAtModel }

func (intermittentModel) Name() string  { return ModelIntermittent }
func (intermittentModel) Title() string { return "Intermittent stuck-at" }

func (intermittentModel) Draw(goldenDyn int64, rng *rand.Rand) *Plan {
	p := stuckAtModel{}.Draw(goldenDyn, rng)
	// Duration bound: up to a quarter of the golden run (at least one
	// instruction), drawn per trial at injection time.
	p.until = 0 // set by Inject; 0 marks "duration pending"
	return p
}

func (intermittentModel) Inject(m *vm.Machine, p *Plan) bool {
	if !memStrike(m, p) {
		return false
	}
	max := p.strideBase() / 4
	if max < 1 {
		max = 1
	}
	p.until = m.Dyn() + 1 + p.rng.Int63n(max)
	return true
}

// strideBase recovers the golden length the stride was derived from, so the
// duration bound scales with the workload without re-plumbing goldenDyn.
func (p *Plan) strideBase() int64 {
	if p.stride > 1 {
		return p.stride * 64
	}
	return 64
}
