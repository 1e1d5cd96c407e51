package vm_test

// RestoreFrom tests: a machine cloned from a suspended source at dyn D must
// be bit-identical — on every observable the engine publishes — to a
// machine that reached D on its own (from scratch or from a snapshot). The
// fault campaign's golden cursor relies on this: one forward-only source
// seeds every trial of a bin. The suite pins the edges: dyn 1, the last
// instruction, re-cloning at an unchanged position (the campaign's timeout
// retry), faulted suffixes for both engine-injected fault kinds, and the
// error surface.

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/vm"
	"repro/internal/workloads"
)

// suffixOnly drops a reference run's trace stream, which covers the whole
// run, for comparison against a positioned run that executed only a suffix.
func suffixOnly(r *engineRun) *engineRun {
	c := *r
	c.traceN, c.traceH = 0, 0
	return &c
}

// TestRestoreFromEquivalence advances one source machine through ascending
// suspend points — dyn 1, the midpoint (cloned twice, as the timeout retry
// does), and the last instruction — cloning each into the same, by then
// dirty, machine; every clone must finish bit-identically to the
// uninterrupted baseline, and so must the source resumed in place.
func TestRestoreFromEquivalence(t *testing.T) {
	w := workloads.ByName("tiff2bw")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	base := runEngine(t, w, mod, vm.EngineFast, workloads.Test, vm.RunOptions{})
	if base.res.Trap != nil {
		t.Fatalf("baseline trapped: %v", base.res.Trap)
	}
	dyn := base.res.Dyn
	newMach := func() *vm.Machine {
		m, err := vm.New(mod, vm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Bind(m, workloads.Test); err != nil {
			t.Fatal(err)
		}
		m.Reset()
		return m
	}
	cursor, mach := newMach(), newMach()

	for _, d := range []int64{1, dyn / 2, dyn / 2, dyn - 1} {
		if d > cursor.Dyn() || !cursor.Suspended() {
			if res := cursor.Run(vm.RunOptions{SuspendAtDyn: d}); res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
				t.Fatalf("no suspension at dyn %d: %v", d, res.Trap)
			}
		}
		if err := mach.RestoreFrom(cursor); err != nil {
			t.Fatalf("RestoreFrom at dyn %d: %v", d, err)
		}
		if !cursor.Suspended() || !mach.Suspended() {
			t.Fatalf("dyn %d: source and clone must both stay suspended", d)
		}
		res := mach.Run(vm.RunOptions{})
		out, err := mach.ReadGlobal(w.Output)
		if err != nil {
			t.Fatal(err)
		}
		diffRuns(t, w.Name+"/clone", &engineRun{res: res, out: out}, suffixOnly(base))
	}
	res := cursor.Run(vm.RunOptions{})
	out, err := cursor.ReadGlobal(w.Output)
	if err != nil {
		t.Fatal(err)
	}
	diffRuns(t, w.Name+"/resumed", &engineRun{res: res, out: out}, suffixOnly(base))
}

// TestRestoreFromFaultTrialEquivalence mirrors the campaign's bin shape:
// trials with randomized triggers are sorted by effective divergence point
// and cloned in order from one cursor — reset for the bin before the first
// snapshot, restored from a snapshot otherwise — and each faulted suffix
// must match the same trial run from scratch, for register and
// branch-target fault models alike. Trials diverging at the origin start
// from Reset, as the campaign's do.
func TestRestoreFromFaultTrialEquivalence(t *testing.T) {
	w := workloads.ByName("tiff2bw")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	golden := runEngine(t, w, mod, vm.EngineFast, workloads.Test, vm.RunOptions{})
	goldenDyn := golden.res.Dyn
	newMach := func() *vm.Machine {
		m, err := vm.New(mod, vm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Bind(m, workloads.Test); err != nil {
			t.Fatal(err)
		}
		m.Reset()
		return m
	}

	// One mid-run snapshot for the snapshot-bin variant.
	producer := newMach()
	snapDyn := goldenDyn / 3
	if res := producer.Run(vm.RunOptions{SuspendAtDyn: snapDyn}); res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
		t.Fatalf("expected suspension, got %v", res.Trap)
	}
	snap, err := producer.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cursor, mach := newMach(), newMach()

	seeds := int64(30)
	if raceEnabled {
		seeds = 8
	}
	for _, branch := range []bool{false, true} {
		for _, useSnap := range []bool{false, true} {
			type trial struct{ seed, trigger, eff int64 }
			var trials []trial
			for seed := int64(0); seed < seeds; seed++ {
				trigger := rand.New(rand.NewSource(seed)).Int63n(goldenDyn)
				eff := trigger
				if branch {
					eff--
				}
				if useSnap && eff < snapDyn {
					continue // the campaign bins these elsewhere
				}
				trials = append(trials, trial{seed, trigger, eff})
			}
			sort.SliceStable(trials, func(i, j int) bool { return trials[i].eff < trials[j].eff })

			at := int64(0)
			if useSnap {
				if err := cursor.Restore(snap); err != nil {
					t.Fatal(err)
				}
				at = snap.Dyn()
			} else {
				cursor.Reset()
			}
			for _, tr := range trials {
				opts := func() vm.RunOptions {
					r := rand.New(rand.NewSource(tr.seed))
					r.Int63n(goldenDyn) // consume the trigger draw
					return vm.InjectAt(branch, tr.trigger, r)
				}
				solo := runEngine(t, w, mod, vm.EngineFast, workloads.Test, opts())

				d := max(tr.eff, at)
				if !useSnap && d <= 0 {
					mach.Reset()
				} else {
					if d > at || !cursor.Suspended() {
						if res := cursor.Run(vm.RunOptions{SuspendAtDyn: d}); res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
							t.Fatalf("seed %d: no suspension at dyn %d: %v", tr.seed, d, res.Trap)
						}
						at = d
					}
					if err := mach.RestoreFrom(cursor); err != nil {
						t.Fatalf("seed %d (eff %d): %v", tr.seed, tr.eff, err)
					}
				}
				o := opts()
				res := mach.Run(o)
				out, err := mach.ReadGlobal(w.Output)
				if err != nil {
					t.Fatal(err)
				}
				diffRuns(t, w.Name+"/cursor-trial", &engineRun{res: res, out: out, fault: vm.RecordOf(o)}, suffixOnly(solo))
			}
		}
	}
}

// TestRestoreFromMisuse covers the error surface: cloning onto the source,
// from an unsuspended source (never run, or stopped by cancellation
// mid-advance), across module revisions, and on the tree engine. A source
// stopped by cancellation recovers with Reset.
func TestRestoreFromMisuse(t *testing.T) {
	w := workloads.ByName("tiff2bw")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	newMach := func(engine vm.EngineKind) *vm.Machine {
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
	dyn := newMach(vm.EngineFast).Run(vm.RunOptions{}).Dyn

	cursor, mach := newMach(vm.EngineFast), newMach(vm.EngineFast)
	if err := mach.RestoreFrom(cursor); err == nil {
		t.Fatal("RestoreFrom an unsuspended machine must error")
	}
	if res := cursor.Run(vm.RunOptions{SuspendAtDyn: dyn / 2}); res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
		t.Fatalf("expected suspension, got %v", res.Trap)
	}
	if err := cursor.RestoreFrom(cursor); err == nil {
		t.Fatal("RestoreFrom self must error")
	}
	foreign, err := vm.New(mod.Clone(), vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Bind(foreign, workloads.Test); err != nil {
		t.Fatal(err)
	}
	foreign.Reset()
	if err := foreign.RestoreFrom(cursor); err == nil {
		t.Fatal("RestoreFrom across module revisions must error")
	}
	if err := newMach(vm.EngineTree).RestoreFrom(cursor); err == nil {
		t.Fatal("RestoreFrom on the tree engine must error")
	}

	// Cancellation mid-advance leaves the source unsuspended: cloning it
	// errors until it is Reset and advanced again.
	stop := make(chan struct{})
	close(stop)
	cursor.Reset()
	if res := cursor.Run(vm.RunOptions{SuspendAtDyn: dyn / 2, Stop: stop}); res.Trap == nil || res.Trap.Kind != vm.TrapCancelled {
		t.Fatalf("expected cancellation, got %v", res.Trap)
	}
	if err := mach.RestoreFrom(cursor); err == nil {
		t.Fatal("RestoreFrom a cancelled machine must error")
	}
	cursor.Reset()
	if res := cursor.Run(vm.RunOptions{SuspendAtDyn: dyn / 2}); res.Trap == nil || res.Trap.Kind != vm.TrapSuspended {
		t.Fatalf("expected suspension after Reset, got %v", res.Trap)
	}
	if err := mach.RestoreFrom(cursor); err != nil {
		t.Fatal(err)
	}
	if fin := mach.Run(vm.RunOptions{}); fin.Trap != nil || fin.Dyn != dyn {
		t.Fatalf("clone after recovery diverged: %+v", fin)
	}
}
