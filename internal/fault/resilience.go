package fault

// Campaign resilience: the supervision layer between the campaign entry
// point (Run) and the raw trial execution (finishTrial). A campaign here is a
// long-lived service operation, not a benchmark script, so the failure of
// any one trial must never forfeit the rest:
//
//   - every trial attempt runs under recover(); a panic — in the vm, in a
//     user-supplied Measure/Acceptable callback, in the OnTrial hook — is
//     quarantined as an Anomaly carrying the panic stack and the exact
//     per-trial reproducer seed, and the worker rebuilds its machine and
//     moves on;
//   - a wall-clock deadline (Config.TrialTimeout, layered over the
//     dyn-count watchdog: a timer closes the attempt's vm.RunOptions.Stop
//     channel, and an attempt that outlives it counts as timed out even
//     if it finished first) reaps trials the watchdog cannot bound; a
//     timed-out trial gets one bounded retry — transient host stalls are
//     common under contention — before it too is quarantined;
//   - context cancellation stops workers between trials and the campaign
//     returns a valid partial Report (Partial: true) instead of an error,
//     so every completed Outcome survives a Ctrl-C;
//   - with Config.TargetCI set, the campaign stops early once the Wilson
//     intervals for coverage and USDC rate are tight enough, recording how
//     many trials the stop saved.
//
// All shared state lives in the campaign struct; per-trial slots
// (rep.Trials[i], state[i]) are written only by the worker that owns trial
// i and read only after the worker pool joins, so the only locked state is
// the anomaly map, the running Tally and the cycle sum.
//
// Every decided trial enters the campaign through noteDone (and every
// quarantined one through noteQuarantined), whether it was just run
// (recordTrial, quarantine), replayed on resume, or folded from shard
// journals by a merge or a consolidation (fold): one running Tally feeds
// OnProgress, the early-stop rule and the final Report alike.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/ir"
	"repro/internal/vm"
)

// Anomaly reasons.
const (
	AnomalyPanic   = "panic"
	AnomalyTimeout = "timeout"
)

// Anomaly records a quarantined trial: one that panicked or exceeded the
// trial deadline (after a retry) and was excluded from the tally instead of
// killing the campaign. Seed is the per-trial rng seed — feeding it to a
// single-trial campaign replays the exact fault plan that misbehaved.
type Anomaly struct {
	Trial  int
	Seed   int64
	Reason string // AnomalyPanic or AnomalyTimeout
	Stack  string // panic stack trace (AnomalyPanic only)
}

// Per-trial dispositions in campaign.state.
const (
	trialPending uint8 = iota
	trialDone
	trialQuarantined
	// trialExcluded marks trials outside the campaign's shard range: they
	// belong to another shard's run, are never executed here, and count
	// neither as pending (a fully-decided shard is not Partial) nor in the
	// Tally.
	trialExcluded
)

// campaign is the shared state of one in-flight fault-injection campaign.
type campaign struct {
	cfg       Config
	cursor    bool            // position trials off a golden cursor, not by Reset
	snaps     []*vm.Snapshot  // the golden run's snapshot ladder (goldenRun); may be empty
	rungs     []*vm.Snapshot  // the convergence ladder: snaps, or nil when Converge < 0
	masks     *vm.AccessMasks // golden memory accesses over snaps; nil: compare memory exactly
	model     Model
	target    Target
	mod       *ir.Module
	golden    []uint64
	goldenDyn int64
	disabled  map[int]bool
	maxDyn    int64
	rep       *Report
	state     []uint8 // one disposition per trial

	jw *journalWriter // nil when the campaign is not journaled

	mu        sync.Mutex
	anomalies map[int]Anomaly
	tally     Tally // every decided trial, replayed ones included
	cycleSum  int64 // final cycles of the trials decided in this process

	stopEarly chan struct{}
	stopOnce  sync.Once
}

// newCampaign builds the records of the campaign a journal header names:
// its Report shell and one disposition per trial, where trials outside the
// header's shard range are another shard's. Run adds the execution state;
// a journal merge or consolidation only folds records in.
func newCampaign(h *journalHeader, cfg Config) *campaign {
	c := &campaign{
		cfg: cfg,
		rep: &Report{
			Workload:       h.Workload,
			Technique:      h.Technique,
			FaultModel:     h.Model,
			GoldenDyn:      h.GoldenDyn,
			GoldenCycles:   h.GoldenCycles,
			DisabledChecks: h.Disabled,
			Trials:         make([]Trial, h.Trials),
		},
		state:     make([]uint8, h.Trials),
		anomalies: make(map[int]Anomaly),
		stopEarly: make(chan struct{}),
	}
	for i := range c.state {
		if i < h.ShardStart || i >= h.ShardEnd {
			c.state[i] = trialExcluded
		}
	}
	return c
}

// seedFor is the campaign's per-trial rng seed scheme — the single source
// of truth shared by drawPlan and anomaly reproducers.
func seedFor(cfg Config, trial int) int64 { return cfg.Seed + int64(trial)*7919 }

// stopRequested reports whether the early-stop criterion has fired.
func (c *campaign) stopRequested() bool {
	select {
	case <-c.stopEarly:
		return true
	default:
		return false
	}
}

// noteDone counts trial i's outcome into the running Tally (cycles is its
// final cycle count, 0 for a trial not run here), reports progress to the
// OnProgress hook, and fires the stop signal once EarlyStop holds.
func (c *campaign) noteDone(i int, tr Trial, cycles int64) {
	c.rep.Trials[i] = tr
	c.state[i] = trialDone
	c.mu.Lock()
	c.tally.add(tr, c.cfg.LargeChange)
	c.cycleSum += cycles
	done, covered, usdc := c.tally.N, c.tally.covered(), c.tally.Count[USDC]
	c.mu.Unlock()
	if c.cfg.OnProgress != nil {
		c.cfg.OnProgress(done, covered, usdc)
	}
	if EarlyStop(done, covered, usdc, c.cfg.TargetCI) {
		c.stopOnce.Do(func() { close(c.stopEarly) })
	}
}

// recordTrial publishes the outcome of trial i, just run: the journal,
// then the campaign's records.
func (c *campaign) recordTrial(i int, tr Trial, cycles int64) error {
	if c.jw != nil {
		if err := c.jw.append(&journalRecord{T: encodeTrial(i, tr)}); err != nil {
			return err
		}
	}
	c.noteDone(i, tr, cycles)
	return nil
}

// noteQuarantined retires trial a.Trial as an anomaly instead of an
// outcome.
func (c *campaign) noteQuarantined(a Anomaly) {
	c.state[a.Trial] = trialQuarantined
	c.mu.Lock()
	c.anomalies[a.Trial] = a
	c.mu.Unlock()
}

// quarantine retires trial i, just attempted, as an anomaly: the campaign's
// records, then the journal.
func (c *campaign) quarantine(i int, reason, stack string) error {
	a := Anomaly{Trial: i, Seed: seedFor(c.cfg, i), Reason: reason, Stack: stack}
	c.noteQuarantined(a)
	if c.jw != nil {
		return c.jw.append(&journalRecord{A: encodeAnomaly(a)})
	}
	return nil
}

// fold splices replayed journal states into the campaign — a resume's own
// journal, or the journals a merge or consolidation unions — and returns
// how many trials it decided. Records outside the campaign's shard range
// are skipped. Two records of one trial must agree: trials are
// deterministic, so a disagreement, or a trial both decided and
// quarantined, means corruption or mixed campaigns. Anomaly stacks may
// differ (panic stacks are path-specific); the first state's record wins.
func (c *campaign) fold(states []*journalState) (int, error) {
	n := 0
	for _, st := range states {
		for i, tr := range st.trials {
			switch c.state[i] {
			case trialExcluded:
				continue
			case trialDone:
				if !sameTrial(c.rep.Trials[i], tr) {
					return 0, fmt.Errorf("fault: journals disagree on trial %d: %+v vs %+v", i, c.rep.Trials[i], tr)
				}
				continue
			case trialQuarantined:
				return 0, fmt.Errorf("fault: trial %d is quarantined in one journal record and decided in another", i)
			}
			c.noteDone(i, tr, 0)
			n++
		}
		for i, a := range st.anomalies {
			switch c.state[i] {
			case trialExcluded:
				continue
			case trialDone:
				return 0, fmt.Errorf("fault: trial %d is quarantined in one journal record and decided in another", i)
			case trialQuarantined:
				if prev := c.anomalies[i]; prev.Seed != a.Seed || prev.Reason != a.Reason {
					return 0, fmt.Errorf("fault: journals disagree on anomaly %d: %+v vs %+v", i, prev, a)
				}
				continue
			}
			c.noteQuarantined(a)
			n++
		}
	}
	return n, nil
}

// pendingTrials lists the trial indices still without a disposition.
func (c *campaign) pendingTrials() []int {
	pending := make([]int, 0, len(c.state))
	for i, s := range c.state {
		if s == trialPending {
			pending = append(pending, i)
		}
	}
	return pending
}

// closeJournal flushes and closes the journal once; safe on every exit path.
func (c *campaign) closeJournal() error {
	if c.jw == nil {
		return nil
	}
	jw := c.jw
	c.jw = nil
	return jw.close()
}

// finalize publishes the running Tally and the partial / early-stop /
// anomaly bookkeeping. ctxErr is the campaign context's error, nil when it
// was never cancelled.
func (c *campaign) finalize(ctxErr error) {
	rep := c.rep
	rep.Tally = c.tally
	pendingLeft := len(c.pendingTrials())
	if len(c.anomalies) > 0 {
		rep.Anomalies = make([]Anomaly, 0, len(c.anomalies))
		for _, a := range c.anomalies {
			rep.Anomalies = append(rep.Anomalies, a)
		}
		sort.Slice(rep.Anomalies, func(i, j int) bool { return rep.Anomalies[i].Trial < rep.Anomalies[j].Trial })
	}
	if pendingLeft > 0 {
		if c.stopRequested() && ctxErr == nil {
			rep.EarlyStopped = true
			rep.TrialsSaved = pendingLeft
		} else {
			rep.Partial = true
		}
	}
}

// errCursorStopped reports that campaign cancellation landed while a golden
// cursor was advancing; the bin ends and finalize marks the report partial.
var errCursorStopped = errors.New("fault: golden cursor stopped by cancellation")

// workerState is one campaign worker's private execution context. The rng
// pair is re-seeded per trial, so workers are interchangeable. The trial
// machine and the golden cursor are rebuilt lazily after a panic left them
// in an unknown state.
type workerState struct {
	c    *campaign
	mach *vm.Machine
	src  rand.Source
	rng  *rand.Rand
	stop <-chan struct{} // campaign context's Done, bounds cursor advances

	// The golden cursor (cursor campaigns only) walks the current bin's
	// fault-free prefix in ascending trigger order; each trial machine is
	// cloned from it at the trial's divergence point.
	cursor  *vm.Machine
	base    *vm.Snapshot // current bin's snapshot; nil for bin 0
	live    bool         // cursor holds this bin's state (restored or reset)
	at      int64        // cursor position: the last suspend index reached
	handOff bool         // the current trial is its unit's last
}

func (c *campaign) newWorker(stop <-chan struct{}) *workerState {
	src := rand.NewSource(0)
	return &workerState{c: c, src: src, rng: rand.New(src), stop: stop}
}

func (ws *workerState) ensureMachine() error {
	if ws.mach != nil {
		return nil
	}
	mach, err := newMachine(ws.c.target, ws.c.mod, ws.c.maxDyn, ws.c.cfg.Engine)
	if err != nil {
		return err
	}
	ws.mach = mach
	return nil
}

// position puts the trial machine at the trial's divergence point at. A
// reset campaign, and a bin-0 trial diverging at the origin, simply Reset —
// the exact state a from-scratch trial starts in. Otherwise the cursor
// (restored to the bin snapshot, or reset, on first use) advances to at and
// the trial machine clones it. Positions must not decrease within a bin;
// repeating one (the timeout retry) re-clones without moving the cursor.
// The unit's last trial takes the cursor machine itself instead of a clone
// — no later trial needs it — and the cursor re-arms lazily if asked again.
//
// Bit-identity: the cursor executes golden prefix only, with the campaign's
// DisabledChecks, and suspends at the same eligibility point a fault hook
// fires at (see checkpoint.go, fact 1); a pending fault has no effect
// before its trigger, and RestoreFrom copies exactly the state Snapshot and
// Restore round-trip. The clone therefore holds the state a from-scratch
// trial reaches at its trigger.
func (ws *workerState) position(at int64) error {
	c := ws.c
	if !c.cursor || (ws.base == nil && at <= 0) {
		ws.mach.Reset()
		return nil
	}
	if ws.cursor == nil {
		m, err := newMachine(c.target, c.mod, c.maxDyn, c.cfg.Engine)
		if err != nil {
			return err
		}
		ws.cursor, ws.live = m, false
	}
	if !ws.live {
		if ws.base != nil {
			if err := ws.cursor.Restore(ws.base); err != nil {
				return err
			}
			ws.at = ws.base.Dyn()
		} else {
			ws.cursor.Reset()
			ws.at = 0
		}
		ws.live = true
	}
	// A restored cursor is already suspended at the snapshot index; a reset
	// one holds no suspension and must run (bin-0 positions here are >= 1).
	if at > ws.at || !ws.cursor.Suspended() {
		res := ws.cursor.Run(vm.RunOptions{DisabledChecks: c.disabled, Stop: ws.stop, SuspendAtDyn: at, Fuse: fuseMode(c.cfg)})
		if res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
			ws.live = false
			if res.Trap != nil && res.Trap.Kind == vm.TrapCancelled {
				return errCursorStopped
			}
			// The golden prefix cannot trap or complete before a trigger
			// inside it: this is an infrastructure fault, not an outcome.
			return fmt.Errorf("fault: golden cursor diverged advancing to dyn %d: %v", at, res.Trap)
		}
		ws.at = at
	}
	if ws.handOff {
		ws.mach, ws.cursor = ws.cursor, ws.mach
		ws.live = false
		return nil
	}
	return ws.mach.RestoreFrom(ws.cursor)
}

// runOne drives trial i to a terminal disposition — a recorded outcome or a
// quarantined anomaly. at is the trial's divergence point (see position).
// Only infrastructure failures (machine construction, journal I/O, cursor
// cancellation) surface as errors.
func (c *campaign) runOne(ws *workerState, i int, at int64) error {
	for attempt := 0; ; attempt++ {
		tr, cycles, timedOut, panicked, stack, err := c.attempt(ws, i, at)
		if err != nil {
			return err
		}
		if panicked {
			return c.quarantine(i, AnomalyPanic, stack)
		}
		if timedOut {
			// One bounded retry: a deadline miss can be a transient host
			// stall (GC pause, noisy neighbor) rather than a stuck trial.
			if attempt == 0 {
				continue
			}
			return c.quarantine(i, AnomalyTimeout, "")
		}
		return c.recordTrial(i, tr, cycles)
	}
}

// attempt executes one guarded trial attempt: draw the plan, position the
// machine, run the suffix. A recovered panic discards the trial machine and
// the cursor — their state is unknown mid-unwind — and reports the stack
// for the quarantine record; the cursor re-arms for the rest of the bin.
func (c *campaign) attempt(ws *workerState, i int, at int64) (tr Trial, cycles int64, timedOut, panicked bool, stack string, err error) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			stack = fmt.Sprintf("panic: %v\n\n%s", r, debug.Stack())
			ws.mach, ws.cursor = nil, nil
		}
	}()
	if c.cfg.OnTrial != nil {
		c.cfg.OnTrial(i)
	}
	if err = ws.ensureMachine(); err != nil {
		return
	}
	plan := drawPlan(c.model, c.cfg, c.goldenDyn, i, ws.src, ws.rng)
	if err = ws.position(at); err != nil {
		return
	}
	var timeout chan struct{}
	if c.cfg.TrialTimeout > 0 {
		timeout = make(chan struct{})
		defer time.AfterFunc(c.cfg.TrialTimeout, func() { close(timeout) }).Stop()
	}
	start := time.Now()
	tr, cycles, timedOut = c.finishTrial(ws.mach, plan, timeout)
	// The timer closes Stop from its own goroutine, which a loaded host may
	// schedule only after a short run has finished; an attempt that outlived
	// TrialTimeout is a timeout either way.
	if c.cfg.TrialTimeout > 0 && time.Since(start) >= c.cfg.TrialTimeout {
		timedOut = true
	}
	return
}

// run is the campaign body: one worker pool claiming work units (see
// schedule) and driving each unit's trials, in order, through runOne.
func (c *campaign) run(ctx context.Context, pending []int, workers int) error {
	if ctx.Err() != nil {
		return nil // finalize marks the report partial
	}
	work := c.schedule(pending, workers)

	var wg sync.WaitGroup
	// Buffered so the feeding loop never blocks even if every worker exits
	// early (setup or journal error).
	unitCh := make(chan int, len(work))
	errCh := make(chan error, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := c.newWorker(ctx.Done())
			for u := range unitCh {
				if err := c.runUnit(ctx, ws, work[u]); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for u := range work {
		unitCh <- u
	}
	close(unitCh)
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}
	return nil
}

// runUnit drives one work unit's trials in order, stopping quietly between
// trials on cancellation or early stop.
func (c *campaign) runUnit(ctx context.Context, ws *workerState, u workUnit) error {
	ws.base, ws.live = u.base, false // the cursor re-arms lazily
	for k, i := range u.trials {
		if ctx.Err() != nil || c.stopRequested() {
			return nil
		}
		ws.handOff = k == len(u.trials)-1
		if err := c.runOne(ws, i, u.at[k]); err != nil {
			if errors.Is(err, errCursorStopped) {
				return nil // cancellation mid-advance; finalize marks partial
			}
			return err
		}
	}
	return nil
}
