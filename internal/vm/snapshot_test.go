package vm_test

// Suspend/snapshot/restore tests: a run paused via RunOptions.SuspendAtDyn
// and continued — on the same machine, or through a Snapshot restored into
// another machine — must be observationally identical to an uninterrupted
// run, including the complete trace stream, cycle counts, and opcode
// accounting. These are the properties the fault campaign's checkpoint
// scheduler builds on.

import (
	"math/rand"
	"testing"

	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestSuspendResumeSameMachine pauses one run several times mid-flight and
// requires the stitched-together execution to match an uninterrupted run on
// every observable, including the full trace stream across the seams.
func TestSuspendResumeSameMachine(t *testing.T) {
	for _, name := range []string{"tiff2bw", "segm"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := workloads.ByName(name)
			mod, err := w.Compile()
			if err != nil {
				t.Fatal(err)
			}
			base := runEngine(t, w, mod, vm.EngineFast, workloads.Test, vm.RunOptions{})
			if base.res.Trap != nil {
				t.Fatalf("baseline trapped: %v", base.res.Trap)
			}

			cfg := vm.DefaultConfig()
			mach, err := vm.New(mod, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Bind(mach, workloads.Test); err != nil {
				t.Fatal(err)
			}
			mach.Reset()
			tr := newHashTracer()
			cuts := []int64{base.res.Dyn / 7, base.res.Dyn / 3, base.res.Dyn / 2, base.res.Dyn * 9 / 10}
			for _, c := range cuts {
				res := mach.Run(vm.RunOptions{Tracer: tr, SuspendAtDyn: c})
				if res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
					t.Fatalf("expected suspension at dyn %d, got %v", c, res.Trap)
				}
				if res.Trap.Dyn < c {
					t.Fatalf("suspended at dyn %d, before the requested %d", res.Trap.Dyn, c)
				}
				if _, err := mach.Snapshot(); err != nil {
					t.Fatalf("snapshot at dyn %d: %v", c, err)
				}
			}
			res := mach.Run(vm.RunOptions{Tracer: tr})
			out, err := mach.ReadGlobal(w.Output)
			if err != nil {
				t.Fatal(err)
			}
			resumed := &engineRun{res: res, out: out, traceN: tr.n, traceH: tr.h}
			diffRuns(t, name+"/resumed", base, resumed)
		})
	}
}

// TestSnapshotRestoreSecondMachine captures a mid-run snapshot on one
// machine and finishes the run on another. Seeding the second tracer with
// the producer's fold state makes the combined trace comparable to the
// uninterrupted stream.
func TestSnapshotRestoreSecondMachine(t *testing.T) {
	w := workloads.ByName("tiff2bw")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	base := runEngine(t, w, mod, vm.EngineFast, workloads.Test, vm.RunOptions{})

	producer, err := vm.New(mod, vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bind(producer, workloads.Test); err != nil {
		t.Fatal(err)
	}
	producer.Reset()
	tr1 := newHashTracer()
	if res := producer.Run(vm.RunOptions{Tracer: tr1, SuspendAtDyn: base.res.Dyn / 2}); res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
		t.Fatalf("expected suspension, got %v", res.Trap)
	}
	snap, err := producer.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	second, err := vm.New(mod, vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bind(second, workloads.Test); err != nil {
		t.Fatal(err)
	}
	second.Reset()
	if err := second.Restore(snap); err != nil {
		t.Fatal(err)
	}
	tr2 := &hashTracer{n: tr1.n, h: tr1.h}
	res := second.Run(vm.RunOptions{Tracer: tr2})
	out, err := second.ReadGlobal(w.Output)
	if err != nil {
		t.Fatal(err)
	}
	resumed := &engineRun{res: res, out: out, traceN: tr2.n, traceH: tr2.h}
	diffRuns(t, "second-machine", base, resumed)

	// The snapshot is reusable: a second restore of the same snapshot on the
	// same machine must replay the suffix identically.
	if err := second.Restore(snap); err != nil {
		t.Fatal(err)
	}
	tr3 := &hashTracer{n: tr1.n, h: tr1.h}
	res = second.Run(vm.RunOptions{Tracer: tr3})
	out, err = second.ReadGlobal(w.Output)
	if err != nil {
		t.Fatal(err)
	}
	diffRuns(t, "second-restore", base, &engineRun{res: res, out: out, traceN: tr3.n, traceH: tr3.h})
}

// TestSnapshotFaultTrialEquivalence mirrors the campaign's checkpointed
// trial shape: snapshots are dropped at fixed cuts of the golden run, each
// faulted trial restores the nearest snapshot below its effective trigger,
// and the outcome must be bit-identical to the same trial run from scratch
// — for register and branch-target faults alike.
func TestSnapshotFaultTrialEquivalence(t *testing.T) {
	w := workloads.ByName("tiff2bw")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	golden := runEngine(t, w, mod, vm.EngineFast, workloads.Test, vm.RunOptions{})
	goldenDyn := golden.res.Dyn

	producer, err := vm.New(mod, vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bind(producer, workloads.Test); err != nil {
		t.Fatal(err)
	}
	producer.Reset()
	cuts := []int64{goldenDyn / 5, 2 * goldenDyn / 5, 3 * goldenDyn / 5, 4 * goldenDyn / 5}
	snaps := make([]*vm.Snapshot, len(cuts))
	for i, c := range cuts {
		if res := producer.Run(vm.RunOptions{SuspendAtDyn: c}); res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
			t.Fatalf("expected suspension at %d, got %v", c, res.Trap)
		}
		if snaps[i], err = producer.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}

	mach, err := vm.New(mod, vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bind(mach, workloads.Test); err != nil {
		t.Fatal(err)
	}

	for _, branch := range []bool{false, true} {
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			trigger := rng.Int63n(goldenDyn)
			scratch := runEngine(t, w, mod, vm.EngineFast, workloads.Test, vm.InjectAt(branch, trigger, rng))

			eff := trigger
			if branch {
				eff--
			}
			snap := (*vm.Snapshot)(nil)
			for i := len(cuts) - 1; i >= 0; i-- {
				if cuts[i] <= eff {
					snap = snaps[i]
					break
				}
			}
			if snap != nil {
				if err := mach.Restore(snap); err != nil {
					t.Fatal(err)
				}
			} else {
				mach.Reset()
			}
			rng2 := rand.New(rand.NewSource(seed))
			rng2.Int63n(goldenDyn) // consume the trigger draw
			o2 := vm.InjectAt(branch, trigger, rng2)
			res := mach.Run(o2)
			out, rerr := mach.ReadGlobal(w.Output)
			if rerr != nil {
				t.Fatal(rerr)
			}
			ck := &engineRun{res: res, out: out, fault: vm.RecordOf(o2), traceN: scratch.traceN, traceH: scratch.traceH}
			diffRuns(t, w.Name+"/ckpt", scratch, ck)
		}
	}
}

// TestMatchesSnapshot pins the state-equality predicate the campaign's
// convergence fast-forward stands on: two machines suspended at the same
// point of the same computation match, a snapshot restore round-trips to a
// match, and any observable difference — dyn index, input data, or not being
// suspended at all — reports false.
func TestMatchesSnapshot(t *testing.T) {
	w := workloads.ByName("tiff2bw")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	base := runEngine(t, w, mod, vm.EngineFast, workloads.Test, vm.RunOptions{})
	cut := base.res.Dyn / 2

	susp := func(kind workloads.InputKind, at int64) *vm.Machine {
		t.Helper()
		m, err := vm.New(mod, vm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Bind(m, kind); err != nil {
			t.Fatal(err)
		}
		m.Reset()
		if res := m.Run(vm.RunOptions{SuspendAtDyn: at}); res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
			t.Fatalf("expected suspension at %d, got %v", at, res.Trap)
		}
		return m
	}

	a := susp(workloads.Test, cut)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !a.MatchesSnapshot(snap) {
		t.Fatal("the machine a snapshot was just taken from must match it")
	}
	if b := susp(workloads.Test, cut); !b.MatchesSnapshot(snap) {
		t.Fatal("an independent machine suspended at the same point must match")
	}

	c, err := vm.New(mod, vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bind(c, workloads.Test); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !c.MatchesSnapshot(snap) {
		t.Fatal("a restore must round-trip to a match")
	}

	if d := susp(workloads.Test, cut+64); d.MatchesSnapshot(snap) {
		t.Fatal("a different suspend point must not match")
	}
	if e := susp(workloads.Train, cut); e.MatchesSnapshot(snap) {
		t.Fatal("a different input set must not match")
	}
	if res := c.Run(vm.RunOptions{}); res.Trap != nil {
		t.Fatalf("resumed run trapped: %v", res.Trap)
	}
	if c.MatchesSnapshot(snap) {
		t.Fatal("a completed (non-suspended) machine must not match")
	}
}

// TestSnapshotErrors covers the misuse surface: snapshots require a
// suspended fast-engine machine, restores require the same module revision,
// the tree engine ignores the suspend point, and Reset discards suspended
// state cleanly.
func TestSnapshotErrors(t *testing.T) {
	w := workloads.ByName("tiff2bw")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	mach, err := vm.New(mod, vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bind(mach, workloads.Test); err != nil {
		t.Fatal(err)
	}
	mach.Reset()
	if _, err := mach.Snapshot(); err == nil {
		t.Fatal("Snapshot on a non-suspended machine must error")
	}

	base := mach.Run(vm.RunOptions{})
	if base.Trap != nil {
		t.Fatalf("baseline trapped: %v", base.Trap)
	}
	baseOut, err := mach.ReadGlobal(w.Output)
	if err != nil {
		t.Fatal(err)
	}

	// Suspend, snapshot, then Reset: the suspended state must be discarded
	// and a fresh run must match the baseline.
	mach.Reset()
	if res := mach.Run(vm.RunOptions{SuspendAtDyn: base.Dyn / 2}); res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
		t.Fatalf("expected suspension, got %v", res.Trap)
	}
	snap, err := mach.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	mach.Reset()
	if res := mach.Run(vm.RunOptions{}); res.Trap != nil || res.Dyn != base.Dyn || res.Cycles != base.Cycles {
		t.Fatalf("post-Reset run diverged: %+v vs %+v", res, base)
	}

	// The snapshot is a parked clone that shares no frames or memory with
	// its source: Reset the source and run it to completion on a different
	// input, and restoring the snapshot (onto the source itself) and
	// finishing the run must still reproduce the baseline.
	if err := w.Bind(mach, workloads.Train); err != nil {
		t.Fatal(err)
	}
	mach.Reset()
	if res := mach.Run(vm.RunOptions{}); res.Trap != nil {
		t.Fatalf("train-input run trapped: %v", res.Trap)
	}
	if err := mach.Restore(snap); err != nil {
		t.Fatal(err)
	}
	res := mach.Run(vm.RunOptions{})
	if res.Trap != nil || res.Ret != base.Ret || res.Dyn != base.Dyn || res.Cycles != base.Cycles {
		t.Fatalf("restore after source Reset+Run diverged: %+v vs %+v", res, base)
	}
	out, err := mach.ReadGlobal(w.Output)
	if err != nil {
		t.Fatal(err)
	}
	for i := range baseOut {
		if out[i] != baseOut[i] {
			t.Fatalf("restore after source Reset+Run: output[%d] = %#x, want %#x", i, out[i], baseOut[i])
		}
	}

	// A machine over a clone of the module is a different module revision
	// (its own lowering): restore must refuse.
	other, err := vm.New(mod.Clone(), vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bind(other, workloads.Test); err != nil {
		t.Fatal(err)
	}
	other.Reset()
	if err := other.Restore(snap); err == nil {
		t.Fatal("Restore across module revisions must error")
	}

	// The tree engine has no snapshot support: SuspendAtDyn is ignored and
	// the run completes; Snapshot reports the engine mismatch.
	cfg := vm.DefaultConfig()
	cfg.Engine = vm.EngineTree
	tree, err := vm.New(mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bind(tree, workloads.Test); err != nil {
		t.Fatal(err)
	}
	tree.Reset()
	if res := tree.Run(vm.RunOptions{SuspendAtDyn: base.Dyn / 2}); res.Trap != nil {
		t.Fatalf("tree engine must ignore SuspendAtDyn, got %v", res.Trap)
	}
	if _, err := tree.Snapshot(); err == nil {
		t.Fatal("Snapshot on the tree engine must error")
	}
	if err := tree.Restore(snap); err == nil {
		t.Fatal("Restore on the tree engine must error")
	}
}
