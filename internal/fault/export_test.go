package fault

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/ir"
	"repro/internal/vm"
)

// Test hooks into the golden run, its snapshot ladder and the trial path.

// LadderIndices returns the requested indices of the ladder a golden run of
// goldenDyn instructions builds from a first spacing of interval (0:
// minSnapInterval, as LadderProbe.Interval), or nil when it builds none,
// assuming every suspension lands on its requested index.
func LadderIndices(interval, goldenDyn int64) []int64 {
	l := &snapLadder{interval: minSnapInterval}
	if interval > 0 {
		l.interval = interval
	}
	for at := l.next(0); at < goldenDyn; at = l.next(at) {
		l.add(at, nil)
	}
	if len(l.at) < 2 {
		return nil
	}
	return l.at
}

// GoldenLadder performs a cursor campaign's golden run on a fresh machine
// and returns its result, the checks it disables for the trials, and its
// snapshot ladder.
func GoldenLadder(t Target, mod *ir.Module, cfg Config) (*vm.Result, map[int]bool, []int64, []*vm.Snapshot, error) {
	mach, err := newMachine(t, mod, 0, cfg.Engine)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	res, l, err := goldenRun(context.Background(), mach, cfg, true, "")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	snaps, _ := l.ladder()
	if snaps == nil {
		return res, failingChecks(res), nil, nil, nil
	}
	return res, failingChecks(res), l.at, snaps, nil
}

// GoldenMasks performs a cursor campaign's golden run on a fresh machine
// the way Run does for a model that corrupts memory, under the LadderProbe
// ctx may carry, and reports whether it recorded access masks.
func GoldenMasks(ctx context.Context, t Target, mod *ir.Module, cfg Config) (bool, error) {
	mach, err := newMachine(t, mod, 0, cfg.Engine)
	if err != nil {
		return false, err
	}
	_, l, err := goldenRun(ctx, mach, cfg, true, t.Output)
	if err != nil {
		return false, err
	}
	return l.masks != nil, nil
}

// finishOn runs finishTrial on mach with rungs as the campaign's
// convergence ladder (nil: none) and no trial timeout.
func (c *campaign) finishOn(mach *vm.Machine, plan *Plan, rungs []*vm.Snapshot) (Trial, int64, bool) {
	c.rungs = rungs
	return c.finishTrial(mach, plan, nil)
}

// PrefixSnapshots runs the golden prefix the way a trial does — with the
// disabled checks and nothing else — on one machine, suspending at each
// index of snapAt (ascending) to snapshot it.
func PrefixSnapshots(t Target, mod *ir.Module, cfg Config, disabled map[int]bool, maxDyn int64, snapAt []int64) ([]*vm.Snapshot, error) {
	mach, err := newMachine(t, mod, maxDyn, cfg.Engine)
	if err != nil {
		return nil, err
	}
	snaps := make([]*vm.Snapshot, len(snapAt))
	for k, s := range snapAt {
		res := mach.Run(vm.RunOptions{DisabledChecks: disabled, SuspendAtDyn: s, Fuse: fuseMode(cfg)})
		if res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
			return nil, fmt.Errorf("fault: prefix run requested suspend at dyn %d, got %v", s, res.Trap)
		}
		if snaps[k], err = mach.Snapshot(); err != nil {
			return nil, err
		}
	}
	return snaps, nil
}

// RunTrial resets mach and runs trial i of a campaign under cfg on it from
// dyn 0, under the plan it draws, as a reset campaign runs it.
func RunTrial(mach *vm.Machine, cfg Config, goldenDyn int64, i int) (*vm.Result, error) {
	model, err := LookupModel(cfg.Model)
	if err != nil {
		return nil, err
	}
	src := rand.NewSource(0)
	plan := drawPlan(model, cfg, goldenDyn, i, src, rand.New(src))
	mach.Reset()
	return mach.Run(plan.runOptions(cfg, nil, nil)), nil
}
