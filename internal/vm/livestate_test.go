package vm_test

// Live-state convergence tests. The fault campaign ends a trial once its
// live state — everything but the register slots no later instruction can
// read — matches a golden snapshot (MatchesLiveState). That is exact only
// if a slot the analysis calls dead really is never read again: these
// tests corrupt every such slot at many suspend points, inside callees
// too, and require the finished run to be bit-identical to the clean one.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// liveStateCase is one program the dead-slot property runs on.
type liveStateCase struct {
	name string
	w    *workloads.Workload
	mod  *ir.Module
}

func liveStateCases(t *testing.T) []liveStateCase {
	t.Helper()
	var cases []liveStateCase
	for _, name := range []string{"tiff2bw", "g721dec", "h264dec", "jpegdec"} {
		w := workloads.ByName(name)
		mod, err := w.Compile()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, liveStateCase{name, w, mod})
	}
	// Protected code is where most masked trials live: shadow copies and
	// check operands die right after their check.
	for _, name := range []string{"g721dec", "h264enc"} {
		w := workloads.ByName(name)
		cases = append(cases, liveStateCase{name + "/fulldup", w, protectedModule(t, w, core.SchemeFullDup)})
	}
	return cases
}

// suspendedAt returns a machine running c's test input, suspended at cut.
func (c liveStateCase) suspendedAt(t *testing.T, cut int64) *vm.Machine {
	t.Helper()
	m := c.machine(t)
	if res := m.Run(vm.RunOptions{SuspendAtDyn: cut}); res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
		t.Fatalf("%s: expected suspension at dyn %d, got %v", c.name, cut, res.Trap)
	}
	return m
}

// machine returns a reset machine bound to c's test input.
func (c liveStateCase) machine(t *testing.T) *vm.Machine {
	t.Helper()
	m, err := vm.New(c.mod, vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.w.Bind(m, workloads.Test); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	return m
}

// finish resumes m to the end and returns its result and output.
func (c liveStateCase) finish(t *testing.T, m *vm.Machine) (*vm.Result, []uint64) {
	t.Helper()
	res := m.Run(vm.RunOptions{})
	out, err := m.ReadGlobal(c.w.Output)
	if err != nil {
		t.Fatal(err)
	}
	return res, out
}

// deadSlotStats summarises one property sweep.
type deadSlotStats struct {
	violations []string // cuts whose corrupted run differed from the clean one
	corrupted  int      // slots corrupted in all
	inCallee   int      // of those, slots of a level below main
}

// deadSlotSweep suspends each case at cuts spread over its run, asks
// analysis for every suspended level's live slots, corrupts every written
// slot it calls dead — all 64 bits complemented, ready time moved — and
// resumes. Each cut whose finished Result (Dyn, Cycles, Trap) or output
// differs from the clean resume is a violation.
func deadSlotSweep(t *testing.T, cases []liveStateCase, analysis func(*vm.Snapshot) [][]int32) deadSlotStats {
	t.Helper()
	const cuts = 24
	var st deadSlotStats
	for _, c := range cases {
		ref := c.machine(t)
		golden := ref.Run(vm.RunOptions{})
		if golden.Trap != nil {
			t.Fatalf("%s: golden run trapped: %v", c.name, golden.Trap)
		}
		trial := c.machine(t)
		for k := int64(1); k <= cuts; k++ {
			cut := golden.Dyn * k / (cuts + 1)
			m := c.suspendedAt(t, cut)
			snap, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			cleanRes, cleanOut := c.finish(t, m)

			if err := trial.Restore(snap); err != nil {
				t.Fatal(err)
			}
			live := analysis(snap)
			for lvl, written := range vm.WrittenSlots(trial) {
				if live[lvl] == nil {
					continue // no analysis at this pc: nothing is dead
				}
				for _, slot := range slices.Clone(written) {
					if slices.Contains(live[lvl], slot) {
						continue
					}
					vm.CorruptSlot(trial, lvl, slot, 1000)
					st.corrupted++
					if lvl < len(live)-1 {
						st.inCallee++
					}
				}
			}
			res, out := c.finish(t, trial)
			if d := diffResult(cleanRes, cleanOut, res, out); d != "" {
				st.violations = append(st.violations, fmt.Sprintf("%s cut %d: %s", c.name, cut, d))
			}
		}
	}
	return st
}

func diffResult(wantRes *vm.Result, wantOut []uint64, res *vm.Result, out []uint64) string {
	switch {
	case (res.Trap == nil) != (wantRes.Trap == nil) || res.Trap != nil && *res.Trap != *wantRes.Trap:
		return fmt.Sprintf("trap %v, clean %v", res.Trap, wantRes.Trap)
	case res.Dyn != wantRes.Dyn:
		return fmt.Sprintf("dyn %d, clean %d", res.Dyn, wantRes.Dyn)
	case res.Cycles != wantRes.Cycles:
		return fmt.Sprintf("cycles %d, clean %d", res.Cycles, wantRes.Cycles)
	case !slices.Equal(out, wantOut):
		return "output differs"
	}
	return ""
}

// TestLiveStateDeadSlotsAreDead: corrupting every slot the analysis calls
// dead never changes a run's outcome.
func TestLiveStateDeadSlotsAreDead(t *testing.T) {
	st := deadSlotSweep(t, liveStateCases(t), vm.SnapshotLive)
	for _, v := range st.violations {
		t.Error(v)
	}
	if st.corrupted == 0 || st.inCallee == 0 {
		t.Fatalf("corrupted %d dead slots, %d of them in a callee: the sweep must reach both", st.corrupted, st.inCallee)
	}
	t.Logf("%d dead slots corrupted, %d in callees", st.corrupted, st.inCallee)
}

// TestLiveStateDroppedSlotIsCaught plants a wrong analysis — the innermost
// level's lowest live slot reported dead — and requires the sweep to
// catch it, so the property test above is not vacuous.
func TestLiveStateDroppedSlotIsCaught(t *testing.T) {
	wrong := func(s *vm.Snapshot) [][]int32 {
		live := vm.SnapshotLive(s)
		out := slices.Clone(live)
		if len(live[0]) > 0 {
			out[0] = live[0][1:]
		}
		return out
	}
	st := deadSlotSweep(t, liveStateCases(t), wrong)
	if len(st.violations) == 0 {
		t.Fatal("a live slot reported dead went unnoticed by the dead-slot sweep")
	}
	t.Logf("%d violations, e.g. %s", len(st.violations), st.violations[0])
}

// TestMatchesLiveState pins the predicate against MatchesSnapshot: a
// difference only in a dead slot converges while the strict compare still
// fails; a difference in a live slot of the innermost level, or in a slot
// an outer level reads after its call returns, fails both.
func TestMatchesLiveState(t *testing.T) {
	w := workloads.ByName("h264dec")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	c := liveStateCase{"h264dec", w, mod}
	golden := c.machine(t).Run(vm.RunOptions{})

	// The first cut parked inside a callee, with a dead written slot
	// innermost and a live written slot in the caller.
	var snap *vm.Snapshot
	var deadSlot, innerLive, outerLive int32
	for k := int64(1); k < 200 && snap == nil; k++ {
		m := c.suspendedAt(t, golden.Dyn*k/200)
		s, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		live, written := vm.SnapshotLive(s), vm.WrittenSlots(m)
		if len(live) < 2 || live[0] == nil || live[1] == nil {
			continue
		}
		dead := firstWritten(written[0], live[0], false)
		in := firstWritten(written[0], live[0], true)
		out := firstWritten(written[1], live[1], true)
		if dead < 0 || in < 0 || out < 0 {
			continue
		}
		snap, deadSlot, innerLive, outerLive = s, dead, in, out
	}
	if snap == nil {
		t.Fatal("no suspend point inside a callee with dead and live slots")
	}

	corrupted := func(level int, slot int32) *vm.Machine {
		m := c.machine(t)
		if err := m.Restore(snap); err != nil {
			t.Fatal(err)
		}
		vm.CorruptSlot(m, level, slot, 0)
		return m
	}
	clean := c.machine(t)
	if err := clean.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !clean.MatchesLiveState(snap) || !clean.MatchesSnapshot(snap) {
		t.Fatal("a restored machine must match its snapshot under both predicates")
	}
	if m := corrupted(0, deadSlot); !m.MatchesLiveState(snap) || m.MatchesSnapshot(snap) {
		t.Fatalf("dead slot %d differs: live-state match %v (want true), strict match %v (want false)",
			deadSlot, m.MatchesLiveState(snap), m.MatchesSnapshot(snap))
	}
	if m := corrupted(0, innerLive); m.MatchesLiveState(snap) || m.MatchesSnapshot(snap) {
		t.Fatalf("live slot %d of the innermost level differs, yet a predicate matched", innerLive)
	}
	if m := corrupted(1, outerLive); m.MatchesLiveState(snap) || m.MatchesSnapshot(snap) {
		t.Fatalf("slot %d the caller reads after its call differs, yet a predicate matched", outerLive)
	}

	// A level the analysis cannot answer for falls back to every written
	// slot, so the dead slot's difference fails the live-state compare too.
	vm.SetSnapshotLive(snap, [][]int32{nil, vm.SnapshotLive(snap)[1]})
	if m := corrupted(0, deadSlot); m.MatchesLiveState(snap) {
		t.Fatal("with no live slots recorded, a difference in any written slot must fail the compare")
	}
}

// firstWritten returns the first written slot whose membership in live
// is want, or -1.
func firstWritten(written, live []int32, want bool) int32 {
	for _, slot := range written {
		if slices.Contains(live, slot) == want {
			return slot
		}
	}
	return -1
}

// TestLiveStateFallbackAtPseudoOps: a pc with no ordinary IR instruction —
// a phi edge, a fell-off or bad-edge trap — gets no live slots, so a level
// parked there would compare every written slot.
func TestLiveStateFallbackAtPseudoOps(t *testing.T) {
	w := workloads.ByName("h264dec")
	m, err := vm.New(protectedModule(t, w, core.SchemeFullDup), vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pcs, answered := vm.PseudoOpLiveSlots(m)
	if pcs == 0 {
		t.Fatal("lowered module has no pseudo-op pcs; the test exercises nothing")
	}
	if answered != 0 {
		t.Fatalf("%d of %d pseudo-op pcs got live slots; they must fall back", answered, pcs)
	}
}
