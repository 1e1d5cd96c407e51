// Package fault implements the paper's statistical fault injection (SFI)
// campaign: single bit flips randomized in time (dynamic instruction index)
// and space (written register, bit position), run to completion, and
// classified into the five outcome categories of §IV-C — Masked, HWDetect,
// SWDetect, Failure, USDC — with the finer SDC/ASDC split used by Figures 2
// and 13 and the large-vs-small value-change attribution of Figure 2.
package fault

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/ir"
	"repro/internal/vm"
)

// Outcome is the paper's five-way classification of one injection trial.
type Outcome uint8

// Outcomes.
const (
	Masked   Outcome = iota // output correct or of acceptable quality
	HWDetect                // hardware symptom within the detection window
	SWDetect                // a software check fired
	Failure                 // crash, out-of-window symptom, or infinite loop
	USDC                    // completed with unacceptable output
)

var outcomeNames = [...]string{"Masked", "HWDetect", "SWDetect", "Failure", "USDC"}

func (o Outcome) String() string { return outcomeNames[o] }

// Config parameterizes a campaign.
type Config struct {
	// Model selects the fault model by registry name (ModelNames lists
	// them): "" or "reg-flip" is the paper's model — single bit flips in
	// written registers of the executing frame, dead values included;
	// "branch-target" corrupts branch destinations;
	// "mem-flip", "burst", "stuck-at" and "intermittent" corrupt the
	// memory image / multi-bit spans / persistently re-forced cells.
	// Every model runs on either engine.
	Model string
	// Trials is the number of injections (paper: 1000 per benchmark).
	Trials int
	// ShardStart/ShardEnd restrict execution to the trial subrange
	// [ShardStart, ShardEnd) of a Trials-sized campaign; both zero (the
	// default) runs the full range. Trial indices stay absolute — every
	// trial draws from seedFor(cfg, trial) regardless of sharding — so
	// disjoint shards of one campaign are independently computable and
	// their journals merge (MergeShardJournals) into a Report bit-identical
	// to a single-process run. A shard run's journal header records the
	// range; resuming a shard requires the same range.
	ShardStart, ShardEnd int
	// Seed makes the whole campaign deterministic.
	Seed int64
	// SymptomWindow is the detection window in dynamic instructions for a
	// trap to count as HWDetect rather than Failure (paper: 1000 cycles).
	SymptomWindow int64
	// WatchdogFactor bounds runaway runs at golden_dyn * factor.
	WatchdogFactor int64
	// LargeChange is the relative value-change threshold separating
	// Figure 2's "large" and "small" corruptions.
	LargeChange float64
	// Workers bounds campaign parallelism (0 = GOMAXPROCS).
	Workers int
	// Engine selects the vm execution engine for every run in the campaign
	// (zero value: the precompiled fast engine). Every fault model fires
	// the same way on both, so Reports do not depend on it; the tree
	// interpreter runs each trial from scratch (no golden-prefix reuse).
	Engine vm.EngineKind
	// Checkpoints controls golden-prefix reuse. By default (>= 0) each
	// worker keeps a golden cursor — a fault-free machine that walks the
	// golden run in ascending trigger order — and starts every trial as a
	// state clone of the cursor at the trial's trigger instead of
	// re-executing the prefix from dyn 0. The golden run also captures
	// snapshots as it executes, one per interval, thinning them to an evenly
	// spaced ladder of at most 64: the cursor restarts from the snapshot
	// nearest below a bin of triggers, and the snapshots double as the
	// convergence ladder (Converge). A golden run shorter than two
	// 20K-instruction intervals gets no ladder. < 0 turns off all
	// golden-prefix reuse — every trial Resets and runs from dyn 0.
	// Golden-prefix reuse requires the fast engine and is skipped
	// otherwise. It never changes campaign results: every Trial stays
	// bit-identical to the from-scratch path.
	Checkpoints int
	// Lockstep is ignored. It named the batched trial executor that the
	// golden cursor (Checkpoints) replaced, and is kept only so existing
	// callers still compile.
	Lockstep int
	// Fuse controls superinstruction dispatch in the fast engine for every
	// run in the campaign: 0 (the default) leaves fused dispatch enabled;
	// < 0 forces the per-instruction path (vm.FuseOff). Like Checkpoints and
	// Workers it is a pure throughput knob: fused dispatch is bit-identical
	// on every observable the campaign reads, so it is not part of the
	// journal's result-affecting configuration.
	Fuse int
	// Converge controls convergence fast-forwarding for cursor-positioned
	// trials: a trial whose live machine state — everything but the
	// register slots no later instruction can read and, under a model that
	// corrupts memory, the memory words the golden run overwrites before
	// reading or never reads again outside the output — re-converges with a
	// golden snapshot after its fault has fired short-circuits to Masked
	// instead of executing the rest of its suffix (finishTrial); a
	// stuck-at or open intermittent fault may too, once the golden run
	// never loads its word again. 0 (the default) enables it; < 0 disables
	// it, and the golden run then records no memory accesses. Another pure
	// throughput knob: the short-circuited Trial is bit-identical to the one
	// the full suffix would produce.
	Converge int
	// JournalPath, when nonempty, makes the campaign durable: every decided
	// trial is appended to a checksummed journal at this path, so a crashed
	// or killed campaign can be resumed without re-running completed trials.
	JournalPath string
	// Resume replays an existing journal at JournalPath before running:
	// decided trials are restored verbatim and only the remainder executes.
	// Trials are self-contained (per-trial seeding), so a resumed campaign's
	// Report is bit-identical to an uninterrupted one. A missing or
	// headerless journal resumes as a fresh start; a journal recorded under
	// a different result-affecting configuration is an error.
	Resume bool
	// TrialTimeout, when positive, bounds each trial attempt in wall-clock
	// time, layered over the dyn-count watchdog. A timed-out trial is
	// retried once, then quarantined as an Anomaly.
	TrialTimeout time.Duration
	// TargetCI, when positive, enables statistical early stopping: the
	// campaign stops drawing trials once the 95% Wilson intervals for both
	// coverage and USDC rate are no wider than TargetCI. Which trials
	// complete before the stop lands is scheduling-dependent.
	TargetCI float64
	// OnTrial, when non-nil, is called at the start of every trial attempt
	// with the trial index. It runs inside the trial's panic isolation —
	// test hooks may panic or stall to exercise quarantine paths.
	OnTrial func(trial int)
	// OnProgress, when non-nil, is called after every decided trial
	// (including journal-replayed ones) with the campaign's cumulative
	// decided/covered/USDC counts. Calls may arrive from concurrent workers
	// and therefore out of order; each call's triple is a consistent
	// snapshot, so consumers should keep the triple with the largest done.
	// The distributed coordinator streams these counts into its pooled
	// cross-shard confidence intervals.
	OnProgress func(done, covered, usdc int)
}

// Target abstracts the program under injection: how to bind its inputs,
// where its output lives, and how to judge output quality. Package
// workloads adapts each benchmark to a Target; library users can wrap
// their own programs.
type Target struct {
	Name string
	// Bind installs the inputs on a fresh machine.
	Bind func(m *vm.Machine) error
	// Output is the global holding the program result.
	Output string
	// Measure scores a faulty output against the golden output.
	Measure func(golden, test []uint64) float64
	// Acceptable judges a measured fidelity value.
	Acceptable func(v float64) bool
}

// DefaultConfig mirrors the paper's setup at reduced trial count.
func DefaultConfig() Config {
	return Config{
		Trials:         1000,
		Seed:           2014, // MICRO 2014
		SymptomWindow:  1000,
		WatchdogFactor: 20,
		LargeChange:    1.0,
	}
}

// Trial is the record of one injection.
type Trial struct {
	Outcome    Outcome
	CheckKind  ir.CheckKind // which check class detected (SWDetect only)
	SDC        bool         // completed with numerically different output
	Acceptable bool         // fidelity above threshold (SDC only)
	Fidelity   float64      // measured fidelity (SDC only)
	RelChange  float64      // relative change of the corrupted register
	TrapKind   vm.TrapKind
}

// Tally aggregates a campaign.
type Tally struct {
	N int
	// Five-way outcome counts (ASDCs are counted under Masked, as in the
	// paper's Figure 11 classification).
	Count [5]int
	// SWDetect attribution.
	SWDetectDup, SWDetectValue, SWDetectCFC, SWDetectABFT int
	// SDC view (Figures 2 and 13): any numerically different completed
	// output. SDC = ASDC + USDC.
	SDC, ASDC int
	// USDC attribution by corrupted-value change magnitude (Figure 2).
	USDCLarge, USDCSmall int
}

// Frac returns outcome o as a fraction of trials.
func (t *Tally) Frac(o Outcome) float64 {
	if t.N == 0 {
		return 0
	}
	return float64(t.Count[o]) / float64(t.N)
}

// Coverage is the paper's fault-coverage definition: Masked + SWDetect +
// HWDetect over all trials.
func (t *Tally) Coverage() float64 {
	if t.N == 0 {
		return 0
	}
	return float64(t.covered()) / float64(t.N)
}

// covered counts the trials the paper's coverage admits.
func (t *Tally) covered() int { return t.Count[Masked] + t.Count[HWDetect] + t.Count[SWDetect] }

// add counts one decided trial: its outcome, the SWDetect attribution, and
// the SDC split, where a USDC is large when the corrupted value changed by
// at least largeChange (Config.LargeChange).
func (t *Tally) add(tr Trial, largeChange float64) {
	t.N++
	t.Count[tr.Outcome]++
	if tr.Outcome == SWDetect {
		switch tr.CheckKind {
		case ir.CheckDup:
			t.SWDetectDup++
		case ir.CheckCFC:
			t.SWDetectCFC++
		case ir.CheckABFT:
			t.SWDetectABFT++
		default:
			t.SWDetectValue++
		}
	}
	if tr.SDC {
		t.SDC++
		if tr.Acceptable {
			t.ASDC++
		} else if tr.RelChange >= largeChange {
			t.USDCLarge++
		} else {
			t.USDCSmall++
		}
	}
}

// Report is the result of one campaign.
type Report struct {
	Workload  string
	Technique string
	// FaultModel is the resolved registry name of the campaign's fault model.
	FaultModel string
	Tally      Tally
	Trials     []Trial
	// Golden-run statistics.
	GoldenDyn    int64
	GoldenCycles int64
	// DisabledChecks is the number of checks squelched because they fired
	// on the fault-free run (persistent false positives).
	DisabledChecks int
	// Anomalies lists quarantined trials (panics, repeated timeouts), in
	// trial order. Quarantined trials are excluded from the Tally.
	Anomalies []Anomaly
	// Partial is set when the campaign was cancelled with trials still
	// pending; the Tally covers only the trials that completed.
	Partial bool
	// EarlyStopped is set when Config.TargetCI halted the campaign once the
	// confidence intervals were tight enough; TrialsSaved counts the trials
	// it never had to run.
	EarlyStopped bool
	TrialsSaved  int
	// Replayed counts trials restored from the journal on resume rather
	// than executed in this process.
	Replayed int
}

// Run executes a fault-injection campaign for one target on one (possibly
// protected) module. The module is not mutated. Cancelling ctx stops the
// campaign between trials — in-flight trials finish (each is bounded by the
// watchdog) and Run returns a valid partial Report (Partial set, Tally over
// the completed trials) with a nil error; only setup and infrastructure
// failures (golden run, snapshotting, journal I/O) return errors.
func Run(ctx context.Context, t Target, mod *ir.Module, technique string, cfg Config) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c, err := runCampaign(ctx, t, mod, technique, cfg)
	if err != nil {
		return nil, err
	}
	return c.rep, nil
}

// runCampaign is Run's body: it returns the finished campaign, whose Report
// is final and whose cycle sum RunWithRecovery prices.
func runCampaign(ctx context.Context, t Target, mod *ir.Module, technique string, cfg Config) (*campaign, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("fault: non-positive trial count")
	}
	shardLo, shardHi := cfg.ShardStart, cfg.ShardEnd
	if shardLo == 0 && shardHi == 0 {
		shardHi = cfg.Trials
	}
	if shardLo < 0 || shardHi > cfg.Trials || shardLo >= shardHi {
		return nil, fmt.Errorf("fault: shard range [%d,%d) invalid for %d trials", shardLo, shardHi, cfg.Trials)
	}
	if cfg.WatchdogFactor <= 0 {
		cfg.WatchdogFactor = 20
	}
	model, err := LookupModel(cfg.Model)
	if err != nil {
		return nil, err
	}

	// Golden run: outputs, dynamic length, persistently failing checks and,
	// for a cursor campaign, the snapshot ladder.
	goldenMach, err := newMachine(t, mod, 0, cfg.Engine)
	if err != nil {
		return nil, err
	}
	cursor := cfg.Checkpoints >= 0 && cfg.Engine == vm.EngineFast
	// Only a model that can leave memory differing needs the golden run's
	// memory accesses, and only to converge.
	memOut := ""
	if _, ok := model.(memoryModel); ok && cfg.Converge >= 0 {
		memOut = t.Output
	}
	goldenRes, ladder, err := goldenRun(ctx, goldenMach, cfg, cursor, memOut)
	if err != nil {
		return nil, err
	}
	if goldenRes.Trap != nil {
		return nil, fmt.Errorf("fault: golden run trapped: %v", goldenRes.Trap)
	}
	golden, err := goldenMach.ReadGlobal(t.Output)
	if err != nil {
		return nil, err
	}
	disabled := failingChecks(goldenRes)

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shardHi-shardLo {
		workers = shardHi - shardLo
	}
	maxDyn := goldenRes.Dyn*cfg.WatchdogFactor + 100_000

	hdr := headerFor(t, technique, cfg, model.Name(), shardLo, shardHi, len(disabled), goldenRes.Dyn, goldenRes.Cycles)
	c := newCampaign(hdr, cfg)
	c.cursor = cursor
	c.snaps, c.masks = ladder.ladder()
	// Bins restore from c.snaps either way, so disabling convergence never
	// disables the cursor's checkpoints.
	if cfg.Converge >= 0 {
		c.rungs = c.snaps
	}
	c.model, c.target, c.mod, c.golden, c.goldenDyn = model, t, mod, golden, goldenRes.Dyn
	c.disabled, c.maxDyn = disabled, maxDyn
	if cfg.JournalPath != "" {
		jw, st, err := openJournal(cfg.JournalPath, cfg.Resume, hdr)
		if err != nil {
			return nil, err
		}
		c.jw = jw
		if st != nil {
			if c.rep.Replayed, err = c.fold([]*journalState{st}); err != nil {
				c.closeJournal()
				return nil, err
			}
		}
	}

	pending := c.pendingTrials()
	var runErr error
	if len(pending) > 0 && !c.stopRequested() {
		runErr = c.run(ctx, pending, workers)
	}
	if runErr != nil {
		c.closeJournal() // best effort; the run error wins
		return nil, runErr
	}
	if err := c.closeJournal(); err != nil {
		return nil, err
	}
	c.finalize(ctx.Err())
	return c, nil
}

// failingChecks is the set of checks that failed in a CountChecks run: the
// persistent false positives a campaign disables in its trials.
func failingChecks(res *vm.Result) map[int]bool {
	disabled := make(map[int]bool)
	for id, n := range res.PerCheckFails {
		if n > 0 {
			disabled[id] = true
		}
	}
	return disabled
}

// newMachine builds a machine with the target's inputs bound. maxDyn of 0
// keeps the default watchdog (golden runs must never hit it).
func newMachine(t Target, mod *ir.Module, maxDyn int64, engine vm.EngineKind) (*vm.Machine, error) {
	vmCfg := vm.DefaultConfig()
	vmCfg.Engine = engine
	if maxDyn > 0 {
		vmCfg.MaxDyn = maxDyn
	}
	mach, err := vm.New(mod, vmCfg)
	if err != nil {
		return nil, err
	}
	if err := t.Bind(mach); err != nil {
		return nil, err
	}
	mach.Reset()
	return mach, nil
}

// drawPlan re-seeds src with the trial's seed and draws its fault plan from
// the model: the trial's only plan rule, shared by the scheduler's binning
// and the trial itself. The model's space draws consume rng lazily at
// injection time, exactly as a fresh rand.New(seed) would.
func drawPlan(model Model, cfg Config, goldenDyn int64, trial int, src rand.Source, rng *rand.Rand) *Plan {
	src.Seed(seedFor(cfg, trial))
	p := model.Draw(goldenDyn, rng)
	p.model = model
	return p
}

// finishTrial runs an already-positioned machine — reset, or cloned from
// the golden cursor — under the trial's fault plan, classifies the outcome,
// and returns the trial's final cycle count (restart recovery prices it).
// The plan fires from inside each Run (it is the run's fault hook), so the
// suffix is one Run per ladder crossing plus one to the end.
//
// A non-empty convergence ladder (c.rungs: the campaign's golden
// snapshots, ascending) enables convergence fast-forwarding: the suffix
// parks at each snapshot index above the trial's position, and a trial
// whose live machine state matches the golden reference state there
// (converged) has a deterministically golden future. Live state is
// everything but the register slots no later instruction can read and,
// when the campaign recorded the golden run's memory accesses (c.masks),
// the memory words the golden run overwrites before reading or never reads
// again outside the output global. So a corrupted value that is dead but still sits in its
// slot or word does not keep the trial running: most masked trials
// re-converge at the first snapshot after the corrupted value dies, and
// their remaining suffix never executes. The short-circuit constructs
// exactly the Trial the full run would: trap-free, bit-equal output,
// Masked, and the golden run's cycle count, since the matched state
// includes the whole timing model.
//
// The plan gates the compare (converged). Before the fault fires, a compare
// would trivially match golden while the pending fault still changes the
// future: an un-injected plan never compares. A settled plan — fired and
// owing no further hook (plan.settled()) — can change nothing more. A plan
// that still owes re-arms (stuck-at to the end of the run, intermittent
// until its window closes) can strike again after the comparison point, but
// only at its one word: it converges only when that word is outside the
// output and the golden run never loads it again, so no re-arm can reach a
// load or the output. The gate also keeps the injector — the one reader of
// the written-slot lists, which the live-state compare skips — from running
// again; a re-arm reads and writes its memory word only. A crossing that
// falls on a due hook suspends first and fires the hook when the next Run
// resumes there, so the plan is not settled at that compare.
func (c *campaign) finishTrial(mach *vm.Machine, plan *Plan, timeout <-chan struct{}) (tr Trial, cycles int64, timedOut bool) {
	opts := plan.runOptions(c.cfg, c.disabled, timeout)
	for k, s := range c.rungs {
		if s.Dyn() <= mach.Dyn() {
			continue
		}
		opts.SuspendAtDyn = s.Dyn()
		res := mach.Run(opts)
		if res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
			tr, timedOut = c.classifyTrial(mach, res, plan)
			return tr, res.Cycles, timedOut
		}
		if c.converged(mach, plan, s, k) {
			return Trial{Outcome: Masked, RelChange: plan.RelChange}, c.rep.GoldenCycles, false
		}
	}
	opts.SuspendAtDyn = 0
	res := mach.Run(opts)
	tr, timedOut = c.classifyTrial(mach, res, plan)
	return tr, res.Cycles, timedOut
}

// converged reports whether the trial machine, parked at rung k of the
// ladder (snapshot s), has the golden run's future under plan: finishTrial
// states the rule.
func (c *campaign) converged(mach *vm.Machine, plan *Plan, s *vm.Snapshot, k int) bool {
	switch {
	case !plan.Injected:
		return false
	case c.masks == nil:
		return plan.settled() && mach.MatchesLiveState(s)
	case plan.settled():
		return mach.MatchesLiveMemory(s, c.masks, k, 0)
	}
	// Re-arming: plan.addr is the word its re-arms keep forcing.
	return plan.addr != 0 && mach.MatchesLiveMemory(s, c.masks, k, plan.addr)
}

// fuseMode maps Config.Fuse onto the vm knob: negative disables fused
// dispatch, anything else leaves the engine default (on).
func fuseMode(cfg Config) vm.FuseMode {
	if cfg.Fuse < 0 {
		return vm.FuseOff
	}
	return vm.FuseAuto
}

// classifyTrial maps a terminal Result onto the §IV-C taxonomy. Shared by
// every suffix path so classification cannot drift.
func (c *campaign) classifyTrial(mach *vm.Machine, res *vm.Result, plan *Plan) (tr Trial, timedOut bool) {
	t, golden := c.target, c.golden
	tr = Trial{RelChange: plan.RelChange}
	if res.Trap != nil {
		tr.TrapKind = res.Trap.Kind
		switch {
		case res.Trap.Kind == vm.TrapCancelled:
			// A trial run's only Stop is its TrialTimeout channel.
			return Trial{}, true
		case res.Trap.Kind == vm.TrapCheck:
			tr.Outcome = SWDetect
			tr.CheckKind = res.Trap.CheckKind
		case res.Trap.Kind == vm.TrapWatchdog:
			tr.Outcome = Failure
		case res.Trap.IsSymptom() && res.Trap.Dyn-plan.TriggerDyn <= c.cfg.SymptomWindow:
			tr.Outcome = HWDetect
		default:
			tr.Outcome = Failure
		}
		return tr, false
	}

	out, err := mach.ReadGlobal(t.Output)
	if err != nil {
		tr.Outcome = Failure
		return tr, false
	}
	same := true
	for i := range golden {
		if out[i] != golden[i] {
			same = false
			break
		}
	}
	if same {
		tr.Outcome = Masked
		return tr, false
	}
	tr.SDC = true
	tr.Fidelity = t.Measure(golden, out)
	tr.Acceptable = t.Acceptable(tr.Fidelity)
	if tr.Acceptable {
		tr.Outcome = Masked // acceptable-quality results count as Masked (§IV-C)
	} else {
		tr.Outcome = USDC
	}
	return tr, false
}
