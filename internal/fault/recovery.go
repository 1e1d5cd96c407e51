package fault

import (
	"context"
	"fmt"

	"repro/internal/ir"
	"repro/internal/vm"
)

// Recovery support (paper §IV-D): the scheme is detection-only and relies
// on an external recovery mechanism (Encore, checkpointing). This file
// models the simplest sound recovery — restart-and-re-execute: when a check
// fires, the program is re-run from its inputs. A transient fault does not
// recur, so the re-execution is fault-free and its output is correct; the
// price is the wasted work up to the detection point plus one clean run.

// RecoveryReport summarizes a campaign under restart recovery.
type RecoveryReport struct {
	Workload  string
	Technique string
	// Trials counts the completed trials (fewer than Config.Trials only
	// when TargetCI stopped the campaign early).
	Trials int
	// Recovered counts trials where a software check fired and the re-run
	// produced the golden output (always, for a transient fault).
	Recovered int
	// StillUSDC counts trials that completed with unacceptable output
	// despite protection (no check fired).
	StillUSDC int
	// Failures counts crashes/hangs. They too are restarted (a deployed
	// system restarts after any detected anomaly — the paper treats
	// hardware symptoms as recovery triggers as well), so they contribute
	// re-execution cost but are reported separately from software
	// detections.
	Failures int
	// MeanCycles is the average cycles per trial including the
	// re-execution cost of every restarted (detected or crashed) trial;
	// GoldenCycles is the fault-free cost.
	MeanCycles   float64
	GoldenCycles int64
}

// RecoveryOverhead is the mean per-trial slowdown versus the fault-free run.
func (r *RecoveryReport) RecoveryOverhead() float64 {
	if r.GoldenCycles == 0 {
		return 0
	}
	return r.MeanCycles/float64(r.GoldenCycles) - 1
}

// RunWithRecovery executes a campaign in which every detected trial — a
// software check, or a hardware symptom or crash — is restarted: re-run
// without the fault from its inputs, which must reproduce the golden output
// bit for bit. The campaign runs on Run's scheduler (workers, golden cursor,
// convergence, OnTrial/OnProgress, TargetCI) and restart recovery only
// reads its finished Tally and the sum of its trials' cycle counts. Every
// restart is the same fault-free run from the same state, so it is executed
// and checked once per campaign and costs GoldenCycles per restarted trial.
//
// Journals, resume and shard ranges are rejected (per-trial cycle counts
// are not journal records), as is a campaign that quarantines a trial
// (RecoveryReport has no anomaly list). Cancelling ctx stops the campaign
// between trials and returns the context's error.
func RunWithRecovery(ctx context.Context, t Target, mod *ir.Module, technique string, cfg Config) (*RecoveryReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.JournalPath != "" || cfg.Resume || cfg.ShardStart != 0 || cfg.ShardEnd != 0 {
		return nil, fmt.Errorf("fault: restart recovery supports no journal, resume or shard range (per-trial cycle counts are not journaled)")
	}
	c, err := runCampaign(ctx, t, mod, technique, cfg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep := c.rep
	if len(rep.Anomalies) > 0 {
		a := rep.Anomalies[0]
		return nil, fmt.Errorf("fault: recovery trial %d quarantined (%s, seed %d)", a.Trial, a.Reason, a.Seed)
	}
	ta := &rep.Tally
	restarts := ta.Count[SWDetect] + ta.Count[HWDetect] + ta.Count[Failure]
	if restarts > 0 {
		if err := c.checkRestart(); err != nil {
			return nil, err
		}
	}
	total := int64(restarts)*rep.GoldenCycles + c.cycleSum
	return &RecoveryReport{
		Workload:     t.Name,
		Technique:    technique,
		Trials:       ta.N,
		Recovered:    ta.Count[SWDetect],
		StillUSDC:    ta.Count[USDC],
		Failures:     ta.Count[HWDetect] + ta.Count[Failure],
		MeanCycles:   float64(total) / float64(ta.N),
		GoldenCycles: rep.GoldenCycles,
	}, nil
}

// checkRestart executes the restart re-run — the program from its inputs,
// fault-free, with the campaign's disabled checks — and asserts it is sound:
// no trap, the golden output, and exactly the golden cycle count.
func (c *campaign) checkRestart() error {
	mach, err := newMachine(c.target, c.mod, c.maxDyn, c.cfg.Engine)
	if err != nil {
		return err
	}
	res := mach.Run(vm.RunOptions{DisabledChecks: c.disabled, Fuse: fuseMode(c.cfg)})
	if res.Trap != nil {
		return fmt.Errorf("fault: recovery re-run trapped: %v", res.Trap)
	}
	if res.Cycles != c.rep.GoldenCycles {
		return fmt.Errorf("fault: recovery re-run took %d cycles, golden run %d", res.Cycles, c.rep.GoldenCycles)
	}
	out, err := mach.ReadGlobal(c.target.Output)
	if err != nil {
		return err
	}
	for j := range c.golden {
		if out[j] != c.golden[j] {
			return fmt.Errorf("fault: recovery produced wrong output at word %d", j)
		}
	}
	return nil
}
