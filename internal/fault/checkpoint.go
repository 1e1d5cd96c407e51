package fault

// Checkpoint-aware campaign scheduling. Every SFI trial is bit-identical to
// the golden run until its fault triggers, so re-executing the golden prefix
// from dyn 0 on each trial wastes — on average — half of every campaign's
// cycles. Instead, one instrumented golden run drops K immutable snapshots
// at interval boundaries (vm.Machine.Snapshot via RunOptions.SuspendAtDyn),
// trials are binned by the snapshot nearest below their pre-drawn trigger
// point, and workers claim whole bins, running each trial as
// restore-snapshot + execute-forward.
//
// Correctness rests on three facts:
//
//  1. The suspend point uses the same eligibility condition as register
//     fault injection (first non-phi instruction whose pre-increment dyn
//     reaches the requested index), so no fault-eligible instruction lies
//     between a requested snapshot index and the actual suspension — a
//     snapshot requested at S serves every trial whose effective trigger is
//     >= S.
//  2. The instrumented run executes with the campaign's DisabledChecks set
//     (and nothing else), exactly like a trial's prefix: disabled checks
//     leave no trace in any counter, so the snapshot state equals the state
//     a from-scratch trial holds at the suspend point, bit for bit.
//  3. Trial randomness is unaffected: binning reads each trial's trigger
//     from its own drawPlan, which re-seeds per trial, and the trial re-draws
//     the same plan, so binning never perturbs a sequence.

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/ir"
	"repro/internal/vm"
)

const (
	// minSnapInterval is the smallest golden-prefix span worth a snapshot:
	// below this, restore overhead (full memory copy) rivals re-execution.
	minSnapInterval = 20_000
	// maxSnapshots bounds the automatic schedule. The golden cursor hands
	// every trial a state clone at its exact divergence point, so bin width
	// costs only cursor advances, and denser ladders only cost memory: a
	// 32-snapshot cap raised peak RSS by 37-105% on the repo benchmark for
	// no throughput gain.
	maxSnapshots = 8
)

// checkpointSchedule returns the dyn indices at which the instrumented
// golden run suspends to capture snapshots, evenly spaced over the golden
// run, or nil when checkpointing is skipped: explicit opt-out
// (cfg.Checkpoints < 0), a non-fast engine (snapshots are a fast-engine
// feature), or a golden run too short to amortize the snapshot overhead.
func checkpointSchedule(cfg Config, goldenDyn int64) []int64 {
	if cfg.Checkpoints < 0 || cfg.Engine != vm.EngineFast {
		return nil
	}
	n := cfg.Checkpoints
	if n == 0 {
		n = min(int(goldenDyn/minSnapInterval), maxSnapshots)
	}
	if n < 2 {
		return nil
	}
	snapAt := make([]int64, 0, n)
	last := int64(0)
	for k := 0; k < n; k++ {
		s := goldenDyn * int64(k+1) / int64(n+1)
		if s > last {
			snapAt = append(snapAt, s)
			last = s
		}
	}
	if len(snapAt) < 2 {
		return nil
	}
	return snapAt
}

// The earliest dyn index whose machine state a trial's injection can
// observe is the model's EffectiveTrigger: register and memory faults fire
// at the first fault-eligible instruction with pre-increment dyn >=
// TriggerDyn — the suspend point itself — while branch-target faults fire
// at the first taken branch whose post-increment dyn reaches TriggerDyn,
// i.e. pre-increment TriggerDyn-1.

// takeSnapshots performs the instrumented golden run: one machine executes
// the golden prefix once, suspending at each scheduled dyn index to capture
// an immutable snapshot. Snapshots are shared read-only across workers.
func takeSnapshots(t Target, mod *ir.Module, cfg Config, disabled map[int]bool, maxDyn int64, snapAt []int64) ([]*vm.Snapshot, error) {
	mach, err := newMachine(t, mod, maxDyn, cfg.Engine)
	if err != nil {
		return nil, err
	}
	snaps := make([]*vm.Snapshot, len(snapAt))
	for k, s := range snapAt {
		res := mach.Run(vm.RunOptions{DisabledChecks: disabled, SuspendAtDyn: s, Fuse: fuseMode(cfg)})
		if res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
			return nil, fmt.Errorf("fault: snapshot run requested suspend at dyn %d, got %v", s, res.Trap)
		}
		if snaps[k], err = mach.Snapshot(); err != nil {
			return nil, err
		}
	}
	return snaps, nil
}

// workUnit is one claimable batch of trials: run in order, each positioned
// at[k] (see workerState.position), on a cursor re-armed from base (nil:
// the prefix from dyn 0).
type workUnit struct {
	base   *vm.Snapshot
	trials []int
	at     []int64
}

// schedule splits the pending trials into work units. A reset campaign
// (tree engine, or Checkpoints < 0) makes one unit per trial, so workers
// balance trial by trial. A cursor campaign bins trials by the snapshot
// nearest below their effective trigger (bin 0: before the first snapshot,
// or the whole campaign without a ladder) and orders each bin by effective
// trigger, ties by trial index, so the cursor only moves forward. Bin 0 is
// split into per-worker chunks — one bin holding most of the campaign
// (always, without a ladder) must not serialize the pool — and, being the
// costliest per trial, queues first. Units are outcome-neutral: trials are
// independent and every chunk is a valid bin.
func (c *campaign) schedule(pending []int, workers int, snapAt []int64, snaps []*vm.Snapshot) []workUnit {
	if !c.cursor {
		work := make([]workUnit, len(pending))
		for k := range pending {
			work[k] = workUnit{trials: pending[k : k+1], at: []int64{0}}
		}
		return work
	}
	src := rand.NewSource(0)
	rng := rand.New(src)
	eff := make([]int64, c.cfg.Trials)
	bins := make([][]int, len(snapAt)+1)
	for _, i := range pending {
		eff[i] = c.model.EffectiveTrigger(drawPlan(c.model, c.cfg, c.goldenDyn, i, src, rng).TriggerDyn)
		b := sort.Search(len(snapAt), func(k int) bool { return snapAt[k] > eff[i] })
		bins[b] = append(bins[b], i)
	}
	unit := func(base *vm.Snapshot, trials []int) workUnit {
		u := workUnit{base: base, trials: trials, at: make([]int64, len(trials))}
		sort.SliceStable(u.trials, func(a, b int) bool { return eff[u.trials[a]] < eff[u.trials[b]] })
		for k, i := range u.trials {
			// Binning compares against the requested snapshot index, but a
			// snapshot parks at the first fault-eligible instruction at or
			// after it — possibly past a trigger binned here. Fact 1 says
			// nothing eligible lies in between, so the snapshot state IS
			// that trial's divergence state: clamp rather than rewind.
			u.at[k] = eff[i]
			if base != nil && u.at[k] < base.Dyn() {
				u.at[k] = base.Dyn()
			}
		}
		return u
	}
	work := make([]workUnit, 0, len(bins)+workers)
	chunks := 1
	if workers > 1 {
		chunks = min(workers, len(bins[0]))
	}
	for k := 0; k < chunks; k++ {
		if lo, hi := len(bins[0])*k/chunks, len(bins[0])*(k+1)/chunks; lo < hi {
			work = append(work, unit(nil, bins[0][lo:hi]))
		}
	}
	for b := 1; b < len(bins); b++ {
		if len(bins[b]) > 0 {
			work = append(work, unit(snaps[b-1], bins[b]))
		}
	}
	return work
}
