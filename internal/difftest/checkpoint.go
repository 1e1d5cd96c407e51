package difftest

// Checkpoint-equivalence invariant. The fault campaign positions trials in
// two ways besides Reset: restoring an immutable Snapshot (the golden
// ladder) and cloning a suspended golden cursor machine with RestoreFrom.
// Both promise that a machine positioned at suspend point D finishes
// bit-identically to a run that reached D on its own. The probe checks this
// per program at the edge points — origin, dyn 1, the midpoint, and the
// last suspendable instruction — on one cursor that only moves forward, as
// the campaign's does:
//
//   - at each point, the cursor's state is captured as a Snapshot and
//     Restored into one machine, and cloned into another with RestoreFrom;
//     both must keep the written-memory invariant (every word at or above
//     the machine's memory bound is zero, Machine.CheckMemHi) — they are
//     dirty from the previous point's run, so their bound may lie above the
//     source's — and both must finish (or re-trap) exactly like the
//     uninterrupted reference, on every observable including all globals;
//   - the origin has no suspend point (SuspendAtDyn is positive): there the
//     campaign Resets the trial machine, so the probe Resets both — by then
//     dirty — machines and requires the reference run again;
//   - finally the cursor itself resumes in place to the end.
//
// Trapping programs are probed too: the suspension check precedes
// execution, so every point up to Trap.Dyn-1 must suspend and each
// positioned suffix must reproduce the identical trap. Campaign-level
// equivalence of the cursor path is the model-diff invariant's
// scratch-vs-checkpointed rows.

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/vm"
)

// diffCheckpoint runs the probe described above. Returns "" when the
// invariant holds, a description otherwise.
func diffCheckpoint(mod *ir.Module, ints []int64, floats []float64, maxDyn int64) string {
	refMach, err := newMachine(mod, ints, floats, maxDyn)
	if err != nil {
		return "" // e.g. no main — nothing to probe
	}
	opts := vm.RunOptions{CountChecks: true}
	ref := refMach.Run(opts)

	// The last guaranteed-suspendable point: instructions carry pre-increment
	// indices 0..Dyn-1 on a completing run, and a trapping instruction's
	// suspension check runs before it executes, so Trap.Dyn-1 is always
	// reachable as a suspend point.
	last := ref.Dyn - 1
	if ref.Trap != nil {
		last = ref.Trap.Dyn - 1
	}

	var machs [3]*vm.Machine // cursor, restored, cloned
	for k := range machs {
		if machs[k], err = newMachine(mod, ints, floats, maxDyn); err != nil {
			return err.Error()
		}
	}
	cursor, restored, cloned := machs[0], machs[1], machs[2]

	prev := int64(0)
	for _, d := range []int64{1, last / 2, last} {
		if d <= prev || d > last {
			continue
		}
		prev = d
		res := cursor.Run(vm.RunOptions{CountChecks: true, SuspendAtDyn: d})
		if res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
			return fmt.Sprintf("no suspension at dyn %d: trap=%v", d, res.Trap)
		}
		snap, err := cursor.Snapshot()
		if err != nil {
			return err.Error()
		}
		if err := restored.Restore(snap); err != nil {
			return fmt.Sprintf("Restore at dyn %d: %v", d, err)
		}
		if err := cloned.RestoreFrom(cursor); err != nil {
			return fmt.Sprintf("RestoreFrom at dyn %d: %v", d, err)
		}
		for _, m := range []*vm.Machine{restored, cloned} {
			if err := m.CheckMemHi(); err != nil {
				return fmt.Sprintf("restore at dyn %d: %v", d, err)
			}
		}
		if diff := diffRun(fmt.Sprintf("restored@%d", d), mod, restored, restored.Run(opts), refMach, ref); diff != "" {
			return diff
		}
		if diff := diffRun(fmt.Sprintf("cloned@%d", d), mod, cloned, cloned.Run(opts), refMach, ref); diff != "" {
			return diff
		}
	}
	restored.Reset()
	cloned.Reset()
	if diff := diffRun("restored@origin", mod, restored, restored.Run(opts), refMach, ref); diff != "" {
		return diff
	}
	if diff := diffRun("cloned@origin", mod, cloned, cloned.Run(opts), refMach, ref); diff != "" {
		return diff
	}
	return diffRun("resumed", mod, cursor, cursor.Run(opts), refMach, ref)
}

// diffRun compares a positioned run against the reference on every
// observable the engine publishes.
func diffRun(label string, mod *ir.Module, mach *vm.Machine, res *vm.Result, refMach *vm.Machine, ref *vm.Result) string {
	if (res.Trap == nil) != (ref.Trap == nil) {
		return fmt.Sprintf("%s: trap mismatch: %v vs %v", label, res.Trap, ref.Trap)
	}
	if res.Trap != nil && *res.Trap != *ref.Trap {
		return fmt.Sprintf("%s: traps differ: %+v vs %+v", label, *res.Trap, *ref.Trap)
	}
	if res.Ret != ref.Ret || res.Dyn != ref.Dyn || res.Cycles != ref.Cycles || res.CheckFails != ref.CheckFails {
		return fmt.Sprintf("%s: result differs: (ret=%#x dyn=%d cyc=%d fails=%d) vs (ret=%#x dyn=%d cyc=%d fails=%d)",
			label, res.Ret, res.Dyn, res.Cycles, res.CheckFails, ref.Ret, ref.Dyn, ref.Cycles, ref.CheckFails)
	}
	for _, g := range mod.Globals {
		a, err1 := mach.ReadGlobal(g.Name)
		b, err2 := refMach.ReadGlobal(g.Name)
		if err1 != nil || err2 != nil {
			return fmt.Sprintf("%s: reading %s: %v / %v", label, g.Name, err1, err2)
		}
		for i := range a {
			if a[i] != b[i] {
				return fmt.Sprintf("%s: %s[%d]: %#x vs %#x", label, g.Name, i, a[i], b[i])
			}
		}
	}
	return ""
}
