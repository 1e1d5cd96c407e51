package softft

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/vm"
)

// Campaign configures a fault-injection campaign against a program.
type Campaign struct {
	// Trials is the number of fault injections, one per trial.
	Trials int
	// FaultModel selects the fault model by registry name (FaultModels
	// lists them): "" or "reg-flip" is the paper's model — one bit of one
	// written register of the executing frame, dead values included;
	// "branch-target" corrupts branch destinations;
	// "mem-flip" flips a bit of the memory image; "burst" corrupts 2–8
	// adjacent bits of a register or memory word; "stuck-at" re-forces a
	// flipped memory bit until the program retires; "intermittent" is a
	// duration-bounded stuck-at.
	FaultModel string
	// Seed makes the campaign reproducible.
	Seed int64
	// Output names the global holding the program's result.
	Output string
	// Measure scores a faulty output against the fault-free output; nil
	// means any numerical difference is unacceptable.
	Measure func(golden, test []uint64) float64
	// Acceptable judges a Measure value; nil with nil Measure means only
	// bit-exact outputs are acceptable.
	Acceptable func(v float64) bool
	// Workers bounds campaign parallelism. 0 (the default) uses one worker
	// per available CPU (GOMAXPROCS).
	Workers int
	// WatchdogFactor bounds each faulty run at fault-free-dynamic-length ×
	// factor before declaring a runaway execution (a Failure outcome).
	// 0 uses the default factor of 20.
	WatchdogFactor int64
	// LargeChange is the relative value-change threshold separating "large"
	// from "small" register corruptions in outcome attribution (the paper's
	// Figure 2 split). 0 uses the default threshold of 1.0, i.e. a 100%
	// relative change.
	LargeChange float64
	// ShardStart and ShardEnd restrict the campaign to the trial subrange
	// [ShardStart, ShardEnd). Both zero (the default) runs every trial.
	// Trial indices are absolute: seeds, fault plans, and outcomes of a
	// shard run are identical to the same trials of a full run, so a
	// campaign may be split into disjoint shards executed by separate
	// processes and their journals merged (MergeShardOutcomes) into
	// Outcomes bit-identical to a single-process run. Sharding requires a
	// Journal (a shard's results are its journal).
	ShardStart int
	ShardEnd   int
	// Journal, when nonempty, names a file to which every decided trial is
	// durably appended (checksummed, batched, fsynced per batch), so a
	// killed campaign can be resumed without losing completed work.
	Journal string
	// Resume replays an existing Journal before running: decided trials are
	// restored and only the remainder executes. A resumed campaign's
	// Outcomes are bit-identical to an uninterrupted run; a journal written
	// under different result-affecting settings is rejected.
	Resume bool
	// TrialTimeout, when positive, bounds each trial in wall-clock time on
	// top of the watchdog. A trial that misses the deadline twice is
	// quarantined as an Anomaly rather than classified.
	TrialTimeout time.Duration
	// TargetCI, when positive, stops the campaign early once the 95%
	// confidence intervals for Coverage and USDCRate are both no wider than
	// this value (e.g. 0.05 for ±2.5%).
	TargetCI float64
	// OnTrial, when non-nil, is invoked at the start of each trial attempt
	// with the trial index. It runs under the trial's panic isolation.
	OnTrial func(trial int)
	// OnProgress, when non-nil, is invoked after every decided trial
	// (including journal-replayed ones) with the campaign's running
	// totals: trials decided so far, of which covered (masked or
	// detected) and unacceptable silent corruptions. Calls come from
	// worker goroutines and may arrive out of order; treat the triple
	// with the largest done as current. It must not block.
	OnProgress func(done, covered, usdc int)
}

// Anomaly describes a quarantined trial: one that panicked or repeatedly
// exceeded TrialTimeout and was excluded from the outcome counts. Seed is
// the trial's rng seed, sufficient to replay the offending fault plan.
type Anomaly struct {
	Trial  int
	Seed   int64
	Reason string // "panic" or "timeout"
	Stack  string // panic stack trace, when Reason is "panic"
}

// Outcomes aggregates a campaign: counts per outcome class plus the
// SDC/ASDC decomposition (see the paper's §IV-C taxonomy).
type Outcomes struct {
	// FaultModel is the resolved registry name of the campaign's fault
	// model ("reg-flip" when the Campaign left it empty).
	FaultModel string
	Trials     int
	Masked     int // correct or acceptable-quality output
	HWDetected int // hardware symptom within the detection window
	SWDetected int // a software check fired
	Failures   int // crash or runaway execution
	USDCs      int // unacceptable silent data corruptions
	SDCs       int // any numerically different completed output
	ASDCs      int // acceptable SDCs
	// Detected by duplication comparisons, expected-value checks,
	// control-flow signature checks, and ABFT kernel checksums respectively.
	SWDetectedDup, SWDetectedValue, SWDetectedCFC, SWDetectedABFT int
	// GoldenDyn/GoldenCycles describe the fault-free run.
	GoldenDyn, GoldenCycles int64
	// Anomalies lists quarantined trials (panics, hangs); they are not
	// counted in Trials or any outcome class.
	Anomalies []Anomaly
	// Partial is set when the campaign was cancelled before completing all
	// trials; the counts cover only the trials that finished.
	Partial bool
	// EarlyStopped is set when TargetCI halted the campaign with the
	// requested precision already reached; TrialsSaved counts the trials it
	// never ran.
	EarlyStopped bool
	TrialsSaved  int
	// Replayed counts trials restored from the journal by Resume.
	Replayed int
}

// Coverage returns the fraction of faults that were masked or detected.
func (o *Outcomes) Coverage() float64 {
	if o.Trials == 0 {
		return 0
	}
	return float64(o.Masked+o.HWDetected+o.SWDetected) / float64(o.Trials)
}

// USDCRate returns unacceptable silent corruptions as a fraction of trials.
func (o *Outcomes) USDCRate() float64 {
	if o.Trials == 0 {
		return 0
	}
	return float64(o.USDCs) / float64(o.Trials)
}

// CoverageInterval returns the 95% Wilson score interval for Coverage.
// The interval always contains the point estimate, stays within [0, 1]
// even for zero or unanimous counts (where the normal approximation
// degenerates), and narrows as Trials grows; Campaign.TargetCI compares
// its width (and USDCInterval's) against the requested precision when
// deciding to stop a campaign early.
func (o *Outcomes) CoverageInterval() (lo, hi float64) {
	return fault.Wilson(o.Masked+o.HWDetected+o.SWDetected, o.Trials, 1.96)
}

// USDCInterval returns the 95% Wilson score interval for USDCRate. Its
// guarantees match CoverageInterval's: the point estimate lies inside,
// bounds stay in [0, 1], and width shrinks as Trials grows — USDC rates
// are typically near zero, exactly where Wilson intervals remain sound
// and Wald intervals collapse.
func (o *Outcomes) USDCInterval() (lo, hi float64) {
	return fault.Wilson(o.USDCs, o.Trials, 1.96)
}

// FaultModels returns the registered fault-model names in registration
// order, valid as Campaign.FaultModel values.
func FaultModels() []string { return fault.ModelNames() }

func (o *Outcomes) String() string {
	var s string
	if o.Trials == 0 {
		// Reachable: every trial quarantined, or cancellation before the
		// first trial completed. Coverage is undefined, not 0%.
		s = "no completed trials"
	} else {
		s = fmt.Sprintf("trials=%d masked=%d hw=%d sw=%d fail=%d usdc=%d (coverage %.1f%%)",
			o.Trials, o.Masked, o.HWDetected, o.SWDetected, o.Failures, o.USDCs, 100*o.Coverage())
	}
	if n := len(o.Anomalies); n > 0 {
		s += fmt.Sprintf(" [%d quarantined]", n)
	}
	if o.Partial {
		s += " [partial]"
	}
	if o.EarlyStopped {
		s += fmt.Sprintf(" [early stop, %d trials saved]", o.TrialsSaved)
	}
	return s
}

// campaignSetup validates a Campaign, applies its defaults, and builds the
// fault.Target/fault.Config pair shared by every injection entry point, so
// the plain and recovery campaign paths cannot drift.
func (p *Program) campaignSetup(in *Input, c Campaign) (fault.Target, fault.Config, error) {
	if c.Output == "" {
		return fault.Target{}, fault.Config{}, fmt.Errorf("softft: Campaign.Output: required (name the global holding the program's result)")
	}
	if c.Trials < 0 {
		return fault.Target{}, fault.Config{}, fmt.Errorf("softft: Campaign.Trials: negative count %d", c.Trials)
	}
	if c.Workers < 0 {
		return fault.Target{}, fault.Config{}, fmt.Errorf("softft: Campaign.Workers: negative count %d", c.Workers)
	}
	if c.Trials == 0 {
		c.Trials = 100
	}
	measure := c.Measure
	acceptable := c.Acceptable
	if measure == nil {
		measure = func(golden, test []uint64) float64 { return 0 }
		acceptable = func(float64) bool { return false }
	} else if acceptable == nil {
		return fault.Target{}, fault.Config{}, fmt.Errorf("softft: Campaign.Acceptable: required when Campaign.Measure is set")
	}

	cfg := fault.DefaultConfig()
	cfg.Trials = c.Trials
	if c.Seed != 0 {
		cfg.Seed = c.Seed
	}
	if c.FaultModel != "" {
		if _, err := fault.LookupModel(c.FaultModel); err != nil {
			return fault.Target{}, fault.Config{}, fmt.Errorf("softft: Campaign.FaultModel: %v", err)
		}
		cfg.Model = c.FaultModel
	}
	if c.Workers > 0 {
		cfg.Workers = c.Workers
	}
	if c.WatchdogFactor > 0 {
		cfg.WatchdogFactor = c.WatchdogFactor
	}
	if c.LargeChange > 0 {
		cfg.LargeChange = c.LargeChange
	}
	if (c.ShardStart != 0 || c.ShardEnd != 0) && c.Journal == "" {
		return fault.Target{}, fault.Config{}, fmt.Errorf("softft: Campaign.ShardStart/ShardEnd: sharding requires Campaign.Journal (a shard's results are its journal)")
	}
	cfg.ShardStart = c.ShardStart
	cfg.ShardEnd = c.ShardEnd
	cfg.JournalPath = c.Journal
	cfg.Resume = c.Resume
	cfg.TrialTimeout = c.TrialTimeout
	cfg.TargetCI = c.TargetCI
	cfg.OnTrial = c.OnTrial
	cfg.OnProgress = c.OnProgress
	target := fault.Target{
		Name:       p.name,
		Bind:       func(m *vm.Machine) error { return in.bind(m) },
		Output:     c.Output,
		Measure:    measure,
		Acceptable: acceptable,
	}
	return target, cfg, nil
}

// InjectFaults runs a fault-injection campaign: each trial injects one fault
// of the campaign's FaultModel (by default, one bit flip in one written
// register) at a random point of execution and classifies the outcome.
func (p *Program) InjectFaults(in *Input, c Campaign) (*Outcomes, error) {
	return p.InjectFaultsContext(context.Background(), in, c)
}

// InjectFaultsContext is InjectFaults with cancellation: when ctx is
// cancelled the campaign's workers stop between trials and the completed
// trials are returned as valid partial Outcomes (Partial set) rather than
// discarded — only setup and infrastructure failures return errors.
func (p *Program) InjectFaultsContext(ctx context.Context, in *Input, c Campaign) (*Outcomes, error) {
	target, cfg, err := p.campaignSetup(in, c)
	if err != nil {
		return nil, err
	}
	rep, err := fault.Run(ctx, target, p.mod, p.name, cfg)
	if err != nil {
		return nil, err
	}
	return outcomesFromReport(rep), nil
}

// outcomesFromReport maps a campaign Report onto the public Outcomes
// shape. It is the single mapping shared by direct campaigns and shard
// merges, so the two can never drift.
func outcomesFromReport(rep *fault.Report) *Outcomes {
	ta := rep.Tally
	out := &Outcomes{
		FaultModel:      rep.FaultModel,
		Trials:          ta.N,
		Masked:          ta.Count[fault.Masked],
		HWDetected:      ta.Count[fault.HWDetect],
		SWDetected:      ta.Count[fault.SWDetect],
		Failures:        ta.Count[fault.Failure],
		USDCs:           ta.Count[fault.USDC],
		SDCs:            ta.SDC,
		ASDCs:           ta.ASDC,
		SWDetectedDup:   ta.SWDetectDup,
		SWDetectedValue: ta.SWDetectValue,
		SWDetectedCFC:   ta.SWDetectCFC,
		SWDetectedABFT:  ta.SWDetectABFT,
		GoldenDyn:       rep.GoldenDyn,
		GoldenCycles:    rep.GoldenCycles,
		Partial:         rep.Partial,
		EarlyStopped:    rep.EarlyStopped,
		TrialsSaved:     rep.TrialsSaved,
		Replayed:        rep.Replayed,
	}
	for _, a := range rep.Anomalies {
		out.Anomalies = append(out.Anomalies, Anomaly(a))
	}
	return out
}

// MergeShardOutcomes folds the journals of one campaign's shard runs (see
// Campaign.ShardStart) into a single Outcomes, bit-identical — counts,
// SDC decomposition, Anomalies ordering — to the Outcomes a
// single-process run of the whole campaign produces. The journals must
// share one campaign identity (workload, scheme, fault model, seed, trial
// count, golden statistics); journals that never received a header (a
// crash before the first write batch) are tolerated and contribute
// nothing. Trials no journal decided leave the merged Outcomes Partial.
func MergeShardOutcomes(paths []string) (*Outcomes, error) {
	rep, err := fault.MergeShardJournals(paths)
	if err != nil {
		return nil, err
	}
	return outcomesFromReport(rep), nil
}

// RecoveryOutcome summarizes a campaign run under restart recovery
// (paper §IV-D): every software detection re-executes the program, which
// for a transient fault yields the correct output.
type RecoveryOutcome struct {
	Trials    int     // completed trials (fewer than Campaign.Trials after an early stop)
	Recovered int     // detections converted into correct completions
	StillUSDC int     // unacceptable outputs that escaped detection
	Failures  int     // crashes / runaway executions
	Overhead  float64 // mean slowdown vs the fault-free run, incl. re-execution
}

// InjectFaultsWithRecovery runs a campaign in which software detections
// trigger restart recovery. It errors if any recovered run's output differs
// from the fault-free output (it cannot, for transient faults — the check
// is an internal soundness assertion).
func (p *Program) InjectFaultsWithRecovery(in *Input, c Campaign) (*RecoveryOutcome, error) {
	return p.InjectFaultsWithRecoveryContext(context.Background(), in, c)
}

// InjectFaultsWithRecoveryContext is InjectFaultsWithRecovery with
// cancellation: when ctx is cancelled the campaign stops between trials and
// the context's error is returned. The campaign runs on the same scheduler
// as InjectFaults, so Workers, TrialTimeout, TargetCI, OnTrial and
// OnProgress apply; Journal, Resume and a shard range are rejected, as is a
// campaign that quarantines a trial.
func (p *Program) InjectFaultsWithRecoveryContext(ctx context.Context, in *Input, c Campaign) (*RecoveryOutcome, error) {
	target, cfg, err := p.campaignSetup(in, c)
	if err != nil {
		return nil, err
	}
	rep, err := fault.RunWithRecovery(ctx, target, p.mod, p.name, cfg)
	if err != nil {
		return nil, err
	}
	return &RecoveryOutcome{
		Trials:    rep.Trials,
		Recovered: rep.Recovered,
		StillUSDC: rep.StillUSDC,
		Failures:  rep.Failures,
		Overhead:  rep.RecoveryOverhead(),
	}, nil
}
