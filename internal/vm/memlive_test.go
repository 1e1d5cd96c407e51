package vm_test

// Live-memory convergence tests. The fault campaign ends a memory-fault
// trial once its live state matches a golden snapshot and every memory word
// that differs is one the golden run's access masks call dead at that rung
// (MatchesLiveMemory). That is exact only if a dead word really is never
// read again before it is overwritten: these tests corrupt every such word
// at every rung of a ladder and require the finished run to be
// bit-identical to the clean one.

import (
	"fmt"
	"testing"

	"repro/internal/lang"
	"repro/internal/vm"
)

// memLadder is a golden run of c with its access masks recorded over a
// ladder of rungs rungs, evenly spread over the run.
type memLadder struct {
	res   *vm.Result
	out   []uint64
	snaps []*vm.Snapshot
	masks *vm.AccessMasks
}

func (c liveStateCase) memLadder(t *testing.T, rungs int) memLadder {
	t.Helper()
	golden := c.machine(t).Run(vm.RunOptions{})
	if golden.Trap != nil {
		t.Fatalf("%s: golden run trapped: %v", c.name, golden.Trap)
	}
	m := c.machine(t)
	masks, err := m.RecordAccesses(c.w.Output)
	if err != nil {
		t.Fatal(err)
	}
	var l memLadder
	for k := 1; k <= rungs; k++ {
		cut := golden.Dyn * int64(k) / int64(rungs+1)
		if res := m.Run(vm.RunOptions{SuspendAtDyn: cut}); res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
			t.Fatalf("%s: expected suspension at dyn %d, got %v", c.name, cut, res.Trap)
		}
		s, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		l.snaps = append(l.snaps, s)
		masks.SetRungs(len(l.snaps))
	}
	l.res, l.out = c.finish(t, m)
	l.masks = masks
	return l
}

// deadWordStats summarises one memory sweep.
type deadWordStats struct {
	violations []string // rungs whose corrupted run differed from the clean one
	corrupted  int      // words corrupted in all
	output     int      // of those, output words the golden run stores next
}

// deadWordSweep builds each case's ladder, lets plant edit its masks, then
// restores every rung, complements all 64 bits of every word the masks call
// dead there, and resumes. Each rung whose finished Result (Dyn, Cycles,
// Trap) or output differs from the golden run's is a violation.
func deadWordSweep(t *testing.T, cases []liveStateCase, plant func(a *vm.AccessMasks, rungs int)) deadWordStats {
	t.Helper()
	const rungs = 12
	var st deadWordStats
	for _, c := range cases {
		l := c.memLadder(t, rungs)
		if plant != nil {
			plant(l.masks, rungs)
		}
		trial := c.machine(t)
		outLo, outN := vm.GlobalSpan(trial, c.w.Output)
		for k, s := range l.snaps {
			if err := trial.Restore(s); err != nil {
				t.Fatal(err)
			}
			for w := uint64(1); w < uint64(vm.MaskWords(l.masks)); w++ {
				if !vm.MaskDead(l.masks, w, k) {
					continue
				}
				trial.SetMemWord(w, ^trial.MemWord(w))
				st.corrupted++
				if w >= outLo && w < outLo+outN {
					st.output++
				}
			}
			res, out := c.finish(t, trial)
			if d := diffResult(l.res, l.out, res, out); d != "" {
				st.violations = append(st.violations, fmt.Sprintf("%s rung %d (dyn %d): %s", c.name, k, s.Dyn(), d))
			}
		}
	}
	return st
}

// TestLiveMemoryDeadWordsAreDead: corrupting every word the access masks
// call dead at a rung never changes a run's outcome — among them output
// words the golden run stores again after the rung.
func TestLiveMemoryDeadWordsAreDead(t *testing.T) {
	st := deadWordSweep(t, liveStateCases(t), nil)
	for _, v := range st.violations {
		t.Error(v)
	}
	if st.corrupted == 0 || st.output == 0 {
		t.Fatalf("corrupted %d dead words, %d of them output words: the sweep must reach both", st.corrupted, st.output)
	}
	t.Logf("%d dead words corrupted, %d of them output words stored next", st.corrupted, st.output)
}

// TestLiveMemoryWrongMaskIsCaught plants a wrong record — at each rung,
// the lowest word loaded next recorded as stored next — and requires the
// sweep to catch it, so the property test above is not vacuous.
func TestLiveMemoryWrongMaskIsCaught(t *testing.T) {
	planted := 0
	plant := func(a *vm.AccessMasks, rungs int) {
		for k := 0; k < rungs; k++ {
			for w := uint64(1); w < uint64(vm.MaskWords(a)); w++ {
				if vm.LoadedNext(a, w, k) {
					vm.ClearLoadNext(a, w, k)
					planted++
					break
				}
			}
		}
	}
	st := deadWordSweep(t, liveStateCases(t), plant)
	if planted == 0 {
		t.Fatal("no word is loaded next at any rung; nothing was planted")
	}
	if len(st.violations) == 0 {
		t.Fatalf("%d words loaded next, reported dead, went unnoticed by the dead-word sweep", planted)
	}
	t.Logf("%d planted, %d violations, e.g. %s", planted, len(st.violations), st.violations[0])
}

// liveMemSrc touches its globals in a fixed order around a long loop, so
// that at a rung inside the loop each global stands for one case of the
// rule: tmp is stored next, keep is loaded next, once is never accessed
// again, out is the output.
const liveMemSrc = `
global int in[1];
global int tmp[1];
global int keep[1];
global int once[1];
global int out[2];
void main() {
	once[0] = in[0] + 1;
	keep[0] = once[0] * 2;
	tmp[0] = keep[0];
	int acc = tmp[0] & 255;
	for (int i = 0; i < 2000; i += 1) {
		acc = acc + ((i * 7) & 255);
	}
	tmp[0] = acc;
	out[0] = tmp[0] + keep[0];
}
`

// TestMatchesLiveMemory pins the predicate's rule at a rung inside the
// loop of liveMemSrc: a differing word stored next, or never accessed
// again outside the output, converges; one loaded next, or an output word
// never accessed again, does not. A forced word converges only when it is
// never loaded again and lies outside the output — even where it matches.
func TestMatchesLiveMemory(t *testing.T) {
	mod, err := lang.Compile("livemem", liveMemSrc)
	if err != nil {
		t.Fatal(err)
	}
	newMachine := func() *vm.Machine {
		m, err := vm.New(mod, vm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.BindInputInts("in", []int64{41}); err != nil {
			t.Fatal(err)
		}
		m.Reset()
		return m
	}
	golden := newMachine().Run(vm.RunOptions{})
	g := newMachine()
	masks, err := g.RecordAccesses("out")
	if err != nil {
		t.Fatal(err)
	}
	if res := g.Run(vm.RunOptions{SuspendAtDyn: golden.Dyn / 2}); res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
		t.Fatalf("golden run did not suspend: %v", res.Trap)
	}
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	masks.SetRungs(1)
	if res := g.Run(vm.RunOptions{}); res.Trap != nil {
		t.Fatalf("golden run trapped: %v", res.Trap)
	}
	word := func(name string) uint64 { base, _ := vm.GlobalSpan(g, name); return base }
	tmp, keep, once, out := word("tmp"), word("keep"), word("once"), word("out")
	outNever := out + 1 // out[1] is never written

	// differs returns a machine restored to the rung with word w flipped.
	differs := func(w uint64) *vm.Machine {
		m := newMachine()
		if err := m.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if w != 0 {
			m.SetMemWord(w, m.MemWord(w)^1<<7)
		}
		return m
	}
	for _, c := range []struct {
		name   string
		w      uint64
		forced uint64
		want   bool
	}{
		{"clean", 0, 0, true},
		{"stored next", tmp, 0, true},
		{"never accessed again", once, 0, true},
		{"loaded next", keep, 0, false},
		{"output, never accessed again", outNever, 0, false},
		{"forced, never loaded again", once, once, true},
		{"forced, stored then loaded", tmp, tmp, false},
		{"forced matching, stored then loaded", 0, tmp, false},
		{"forced matching, output", 0, outNever, false},
	} {
		m := differs(c.w)
		if got := m.MatchesLiveMemory(snap, masks, 0, c.forced); got != c.want {
			t.Errorf("%s: MatchesLiveMemory = %v, want %v", c.name, got, c.want)
		}
		if c.w != 0 && m.MatchesLiveState(snap) {
			t.Errorf("%s: the exact memory compare matched a differing word", c.name)
		}
	}
	if differs(0).MatchesLiveMemory(snap, masks, 1, 0) {
		t.Error("a rung the masks do not describe must not match")
	}
}
