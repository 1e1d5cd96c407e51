package fault

// Checkpoint-aware campaign scheduling. Every SFI trial is bit-identical to
// the golden run until its fault triggers, so re-executing the golden prefix
// from dyn 0 on each trial wastes — on average — half of every campaign's
// cycles. Instead, the golden run itself drops immutable snapshots at
// interval boundaries as it executes (goldenRun: vm.Machine.SnapshotZeroChecks
// via RunOptions.SuspendAtDyn, thinned to a capped, evenly spaced ladder by
// snapLadder), trials are binned by the last snapshot at or below their
// pre-drawn trigger point, and workers claim whole bins, running each trial
// as restore-snapshot + execute-forward. A snapshot holds only the memory
// the program has written (vm's memHi bound), so taking, restoring and
// comparing one costs the program's footprint, not its stack reservation.
//
// Correctness rests on three facts:
//
//  1. The suspend point is the point a fault hook fires at (first non-phi
//     instruction whose pre-increment dyn reaches the requested index), so no
//     fault-eligible instruction lies between a requested index and the
//     actual suspension. A snapshot parked at P serves every trial whose
//     hook is first due (its drawn plan's pendingAt) at or after P; a due
//     point between the requested index and P falls in the bin below, whose
//     cursor, advanced to it, parks at P too, in the same state.
//  2. A trial's prefix runs with the campaign's DisabledChecks — the checks
//     that fail in the golden run — and the golden run counts check
//     failures instead. Both continue past a failing check, so the two runs
//     differ only in the check counters, which the ladder's snapshots record
//     as zero: the snapshot state equals the state a from-scratch trial
//     holds at the suspend point, bit for bit.
//  3. Trial randomness is unaffected: binning reads each trial's trigger
//     from its own drawPlan, which re-seeds per trial, and the trial re-draws
//     the same plan, so binning never perturbs a sequence.

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/vm"
)

const (
	// minSnapInterval is the ladder's first spacing, and the smallest
	// golden-prefix span worth a snapshot: below it, restoring a snapshot
	// (a copy of the written memory image, the call chain and the timing
	// state) rivals re-executing the span.
	minSnapInterval = 20_000
	// maxSnapshots caps the ladder. Every snapshot is both a cursor restart
	// point and a convergence point, and a masked trial runs its suffix only
	// up to the first snapshot after its fault dies, so a denser ladder ends
	// masked trials sooner and splits a campaign into smaller, better
	// balanced bins. A snapshot costs only the memory the program wrote
	// (9-295 KB across the workloads' test inputs). On the repo benchmark a
	// 64 cap ran the paper-figures grid 30% faster than 8 for at most 16%
	// more peak RSS; 512 gained nothing over 64 and cost 25% more memory.
	// It is also the most rungs the golden run's access masks describe, so
	// every ladder can carry them.
	maxSnapshots = vm.MaskRungs
)

// snapLadder is the snapshot ladder rule, applied while the golden run
// executes, before its length is known: the run suspends at every multiple
// of the interval, which starts at minSnapInterval, and snapshots there.
// Once the ladder holds more than maxSnapshots snapshots it drops every
// other one and doubles the interval, so it stays evenly spaced over the
// prefix run so far. at[k] is the index snaps[k] was requested at, which
// thinning reads. masks, when set, records the golden run's memory accesses
// over the same rungs and is thinned with them.
type snapLadder struct {
	interval int64
	at       []int64
	snaps    []*vm.Snapshot
	masks    *vm.AccessMasks
}

// next is the index to suspend at next: the first multiple of the interval
// past dyn, the golden machine's position.
func (l *snapLadder) next(dyn int64) int64 { return (dyn/l.interval + 1) * l.interval }

// add records snapshot s, requested at index at, and thins the ladder while
// it holds more than maxSnapshots snapshots. The masks drop the same rungs;
// the new rung, which no access has followed yet, needs no bits of its own,
// so a ladder of at most vm.MaskRungs rungs never needs a bit past the last.
func (l *snapLadder) add(at int64, s *vm.Snapshot) {
	l.at, l.snaps = append(l.at, at), append(l.snaps, s)
	for len(l.at) > maxSnapshots {
		l.interval *= 2
		n := 0
		var keep uint64
		for k, a := range l.at {
			if a%l.interval == 0 {
				l.at[n], l.snaps[n] = a, l.snaps[k]
				keep |= 1 << k
				n++
			}
		}
		clear(l.snaps[n:]) // release the dropped snapshots
		l.at, l.snaps = l.at[:n], l.snaps[:n]
		if l.masks != nil {
			l.masks.Thin(keep)
		}
	}
	if l.masks != nil {
		l.masks.SetRungs(len(l.at))
	}
}

// ladder returns the snapshots, ascending, and the access masks (nil when
// none were recorded), or nils when there is no ladder or fewer than two
// snapshots were taken: the golden run is too short to amortize them.
func (l *snapLadder) ladder() ([]*vm.Snapshot, *vm.AccessMasks) {
	if l == nil || len(l.snaps) < 2 {
		return nil, nil
	}
	return l.snaps, l.masks
}

// LadderProbe is a seam into a cursor campaign's snapshot ladder for the
// differential tests, handed to Run through its context (WithLadderProbe).
// Their generated programs run far shorter than two minSnapInterval spans,
// so the default rule gives them no ladder: a positive Interval replaces
// minSnapInterval as the ladder's first spacing, and Run records the
// ladder's length in Snapshots, so the test can confirm that trials took
// the restore and convergence paths. Where the snapshots sit never changes
// a campaign's results, only where its trials start.
type LadderProbe struct {
	Interval  int64
	Snapshots int
}

type ladderProbeKey struct{}

// WithLadderProbe returns a copy of ctx that carries p to Run.
func WithLadderProbe(ctx context.Context, p *LadderProbe) context.Context {
	return context.WithValue(ctx, ladderProbeKey{}, p)
}

// goldenRun executes the campaign's golden run on mach, counting check
// failures. With withLadder set it also builds the snapshot ladder on the
// way, and returns it: it parks at each ladder index (snapLadder.next) and
// snapshots the machine with its check counters zeroed. Every check that
// fails in the prefix fails in the golden run, so the trials disable it,
// and a counting run and a disabling run differ only in those counters:
// the snapshot is the state a trial's prefix holds at that index (fact 2).
// Parking does not perturb the run; its final Result equals an
// uninterrupted one. A nonempty output makes the ladder record the run's
// memory accesses over its rungs (vm.AccessMasks, with output the global
// read after the run). Only cfg's Fuse reaches the run: the ladder's shape
// depends on the program, its input and a LadderProbe in ctx, which sets
// the ladder's first spacing and receives its length.
func goldenRun(ctx context.Context, mach *vm.Machine, cfg Config, withLadder bool, output string) (*vm.Result, *snapLadder, error) {
	opts := vm.RunOptions{CountChecks: true, Fuse: fuseMode(cfg)}
	if !withLadder {
		return mach.Run(opts), nil, nil
	}
	probe, _ := ctx.Value(ladderProbeKey{}).(*LadderProbe)
	l := &snapLadder{interval: minSnapInterval}
	if probe != nil && probe.Interval > 0 {
		l.interval = probe.Interval
	}
	if output != "" {
		var err error
		if l.masks, err = mach.RecordAccesses(output); err != nil {
			return nil, nil, err
		}
	}
	for {
		opts.SuspendAtDyn = l.next(mach.Dyn())
		res := mach.Run(opts)
		if res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
			if probe != nil {
				snaps, _ := l.ladder()
				probe.Snapshots = len(snaps)
			}
			return res, l, nil
		}
		s, err := mach.SnapshotZeroChecks()
		if err != nil {
			return nil, nil, err
		}
		l.add(opts.SuspendAtDyn, s)
	}
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
// balance trial by trial. A cursor campaign bins trials by the last
// snapshot parked at or below their due point — the dyn their drawn plan's
// hook is first due at, pendingAt — (bin 0: before the first snapshot, or
// the whole campaign without a ladder) and orders each bin by due point,
// ties by trial index, so the cursor only moves
// forward. Bin 0 is split into per-worker chunks — one bin holding most of
// the campaign (always, without a ladder) must not serialize the pool —
// and, being the costliest per trial, queues first. Units are
// outcome-neutral: trials are independent and every chunk is a valid bin.
func (c *campaign) schedule(pending []int, workers int) []workUnit {
	if !c.cursor {
		work := make([]workUnit, len(pending))
		for k := range pending {
			work[k] = workUnit{trials: pending[k : k+1], at: []int64{0}}
		}
		return work
	}
	src := rand.NewSource(0)
	rng := rand.New(src)
	due := make([]int64, c.cfg.Trials)
	bins := make([][]int, len(c.snaps)+1)
	for _, i := range pending {
		due[i] = drawPlan(c.model, c.cfg, c.goldenDyn, i, src, rng).pendingAt
		b := sort.Search(len(c.snaps), func(k int) bool { return c.snaps[k].Dyn() > due[i] })
		bins[b] = append(bins[b], i)
	}
	unit := func(base *vm.Snapshot, trials []int) workUnit {
		u := workUnit{base: base, trials: trials, at: make([]int64, len(trials))}
		sort.SliceStable(u.trials, func(a, b int) bool { return due[u.trials[a]] < due[u.trials[b]] })
		for k, i := range u.trials {
			u.at[k] = due[i]
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
			work = append(work, unit(c.snaps[b-1], bins[b]))
		}
	}
	return work
}
