package vm_test

// Written-memory bound tests. Reset, RestoreFrom, Snapshot and
// MatchesSnapshot touch only mem[:memHi] and stand on one invariant: every
// word at or above the bound is zero. The suite checks it after golden runs
// on both engines, after restores onto a machine whose bound is higher than
// the source's (the stale words between the bounds must be cleared), and
// pins MatchesSnapshot across different bounds. Faulty runs of the
// registered fault models are covered in internal/fault.

import (
	"testing"

	"repro/internal/vm"
	"repro/internal/workloads"
)

// boundMachine builds a machine for w's test input on the given engine.
func boundMachine(t *testing.T, w *workloads.Workload, engine vm.EngineKind) *vm.Machine {
	t.Helper()
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := vm.DefaultConfig()
	cfg.Engine = engine
	m, err := vm.New(mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bind(m, workloads.Test); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	return m
}

// TestMemHiAfterGoldenRuns runs every workload on both engines, twice on
// the same machine, and checks the invariant after each Reset and each run.
// Both engines must agree on the bound, since they execute the same stores.
func TestMemHiAfterGoldenRuns(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var hi [2]uint64
			for k, engine := range []vm.EngineKind{vm.EngineFast, vm.EngineTree} {
				m := boundMachine(t, w, engine)
				for pass := 0; pass < 2; pass++ {
					if err := m.CheckMemHi(); err != nil {
						t.Fatalf("engine %d, pass %d, after Reset: %v", engine, pass, err)
					}
					if res := m.Run(vm.RunOptions{}); res.Trap != nil {
						t.Fatalf("engine %d: trapped: %v", engine, res.Trap)
					}
					if err := m.CheckMemHi(); err != nil {
						t.Fatalf("engine %d, pass %d, after Run: %v", engine, pass, err)
					}
					hi[k] = vm.MemHi(m)
					m.Reset()
				}
			}
			if hi[0] != hi[1] {
				t.Fatalf("memHi after a golden run: fast %d, tree %d", hi[0], hi[1])
			}
		})
	}
}

// TestMemHiRestoreOntoHigherBound restores an early suspend point — by
// Snapshot/Restore and by RestoreFrom — onto machines that have run to
// completion and so hold a higher bound (jpegenc writes stack frames; most
// workloads keep their locals in registers). The stale words above the
// source's bound must be cleared: the invariant holds, the restored machine
// matches the snapshot, and it finishes bit-identically to an uninterrupted
// run.
func TestMemHiRestoreOntoHigherBound(t *testing.T) {
	w := workloads.ByName("jpegenc")
	ref := boundMachine(t, w, vm.EngineFast)
	base := ref.Run(vm.RunOptions{})
	if base.Trap != nil {
		t.Fatalf("baseline trapped: %v", base.Trap)
	}
	baseOut, err := ref.ReadGlobal(w.Output)
	if err != nil {
		t.Fatal(err)
	}

	cursor := boundMachine(t, w, vm.EngineFast)
	if res := cursor.Run(vm.RunOptions{SuspendAtDyn: 1}); res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
		t.Fatalf("expected suspension at dyn 1, got %v", res.Trap)
	}
	snap, err := cursor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if vm.SnapshotMemHi(snap) != vm.MemHi(cursor) {
		t.Fatalf("snapshot bound %d, source bound %d", vm.SnapshotMemHi(snap), vm.MemHi(cursor))
	}

	restores := map[string]func(m *vm.Machine) error{
		"Restore":     func(m *vm.Machine) error { return m.Restore(snap) },
		"RestoreFrom": func(m *vm.Machine) error { return m.RestoreFrom(cursor) },
	}
	for name, restore := range restores {
		m := boundMachine(t, w, vm.EngineFast)
		if res := m.Run(vm.RunOptions{}); res.Trap != nil {
			t.Fatalf("%s: dirtying run trapped: %v", name, res.Trap)
		}
		if vm.MemHi(m) <= vm.MemHi(cursor) {
			t.Fatalf("%s: a full run left bound %d, not above the dyn-1 bound %d; the test restores onto nothing stale",
				name, vm.MemHi(m), vm.MemHi(cursor))
		}
		if err := restore(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.CheckMemHi(); err != nil {
			t.Fatalf("%s onto a higher bound: %v", name, err)
		}
		if vm.MemHi(m) != vm.MemHi(cursor) {
			t.Fatalf("%s: bound %d, source bound %d", name, vm.MemHi(m), vm.MemHi(cursor))
		}
		if !m.MatchesSnapshot(snap) {
			t.Fatalf("%s: restored machine does not match the snapshot", name)
		}
		res := m.Run(vm.RunOptions{})
		out, err := m.ReadGlobal(w.Output)
		if err != nil {
			t.Fatal(err)
		}
		diffRuns(t, name, &engineRun{res: base, out: baseOut}, &engineRun{res: res, out: out})
		if err := m.CheckMemHi(); err != nil {
			t.Fatalf("%s, after the resumed run: %v", name, err)
		}
	}
}

// TestMatchesSnapshotAcrossMemHi compares machines and snapshots whose
// bounds differ: a zero word written above the other side's bound raises
// the bound but not the state, so they still match; a nonzero one does not.
// Both directions are pinned — the machine's bound above the snapshot's,
// and the snapshot's above the machine's.
func TestMatchesSnapshotAcrossMemHi(t *testing.T) {
	w := workloads.ByName("tiff2bw")
	dyn := boundMachine(t, w, vm.EngineFast).Run(vm.RunOptions{}).Dyn
	susp := func() *vm.Machine {
		t.Helper()
		m := boundMachine(t, w, vm.EngineFast)
		if res := m.Run(vm.RunOptions{SuspendAtDyn: dyn / 2}); res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
			t.Fatalf("expected suspension at dyn %d, got %v", dyn/2, res.Trap)
		}
		return m
	}
	a := susp()
	snapA, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	far := vm.MemHi(a) + 100

	b := susp()
	b.SetMemWord(far, 0)
	if vm.MemHi(b) <= vm.SnapshotMemHi(snapA) {
		t.Fatalf("SetMemWord at %d left the bound at %d", far, vm.MemHi(b))
	}
	if !b.MatchesSnapshot(snapA) {
		t.Fatal("machine with a higher bound over zero words must match")
	}
	snapB, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !a.MatchesSnapshot(snapB) {
		t.Fatal("snapshot with a higher bound over zero words must match")
	}

	b.SetMemWord(far, 1)
	if b.MatchesSnapshot(snapA) {
		t.Fatal("machine with a nonzero word above the snapshot's bound must not match")
	}
	snapB, err = b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if a.MatchesSnapshot(snapB) {
		t.Fatal("snapshot with a nonzero word above the machine's bound must not match")
	}
	if err := b.CheckMemHi(); err != nil {
		t.Fatal(err)
	}
}
