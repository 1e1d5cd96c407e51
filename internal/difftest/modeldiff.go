package difftest

// Fault-model equivalence invariant. Every registered fault model promises
// that its campaigns are execution-path independent: the scheduler knobs —
// from-scratch (Reset per trial) vs checkpointed (golden-cursor clones
// plus the convergence ladder), fused vs per-instruction dispatch, fast
// engine vs tree interpreter — are throughput-only, so the same seeds must
// yield bit-identical Reports on every path. Every model but branch-target
// fires from the engines' per-instruction event point (the run's fault
// hook), the same point a cursor clone or a ladder crossing suspends at, so
// a hook that fired differently in either engine, or a suspension that
// perturbed any observable, would surface here as a cross-path diff. The
// probe runs every registered model on each generated program.

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/vm"
)

// modelTrials sizes the per-model campaign probe: enough to spread triggers
// over more than one checkpoint bin, few enough to keep the oracle fast.
const modelTrials = 6

// diffFaultModels runs one small campaign per registered model (or per
// model in only, when non-nil) on each of the scheduler paths and diffs
// the Reports pairwise against the from-scratch reference. Returns ""
// when the invariant holds.
func diffFaultModels(name string, mod *ir.Module, ints []int64, floats []float64, only []string) string {
	if mod.Global("out") == nil {
		return "" // fuzzed sources may lack the campaign output
	}
	target := fault.Target{
		Name:       name,
		Bind:       func(m *vm.Machine) error { return bindInputs(m, mod, ints, floats) },
		Output:     "out",
		Measure:    func(golden, test []uint64) float64 { return 0 },
		Acceptable: func(float64) bool { return false },
	}

	models := fault.Models()
	if len(only) > 0 {
		models = models[:0:0]
		for _, n := range only {
			models = append(models, fault.MustModel(n))
		}
	}
	for _, model := range models {
		cfg := fault.DefaultConfig()
		cfg.Model = model.Name()
		cfg.Trials = modelTrials
		cfg.Workers = 1
		cfg.WatchdogFactor = 20

		run := func(label string, engine vm.EngineKind, checkpoints, fuse int, probe *fault.LadderProbe) (*fault.Report, string) {
			c := cfg
			c.Engine = engine
			c.Checkpoints = checkpoints
			c.Fuse = fuse
			ctx := context.Background()
			if probe != nil {
				ctx = fault.WithLadderProbe(ctx, probe)
			}
			rep, err := fault.Run(ctx, target, mod, "Original", c)
			if err != nil {
				return nil, fmt.Sprintf("%s/%s campaign: %v", model.Name(), label, err)
			}
			if len(rep.Anomalies) != 0 || rep.Partial {
				return nil, fmt.Sprintf("%s/%s campaign: unexpected anomalies/partial state: %+v", model.Name(), label, rep)
			}
			return rep, ""
		}
		ref, d := run("scratch", vm.EngineFast, -1, 0, nil)
		if d != "" {
			return d
		}
		// Generated programs run far shorter than the ladder's default
		// spacing, so the checkpointed row spaces it 1/(2·vm.MaskRungs) of
		// the golden run apart: every program gets a ladder and its trials
		// cross snapshot restores and convergence compares. Over a golden
		// run of 2·vm.MaskRungs or more instructions that spacing requests
		// more snapshots than the ladder's cap, so the ladder thins on the
		// way, as it does over long golden runs: a ladder within the cap
		// confirms the thinning.
		ladder := &fault.LadderProbe{Interval: max(ref.GoldenDyn/(2*vm.MaskRungs), 1)}
		paths := []struct {
			label             string
			engine            vm.EngineKind
			checkpoints, fuse int
			probe             *fault.LadderProbe
		}{
			{"checkpointed", vm.EngineFast, 0, 0, ladder},
			{"unfused", vm.EngineFast, -1, -1, nil},
			{"tree", vm.EngineTree, 0, 0, nil},
		}
		for _, p := range paths {
			rep, d := run(p.label, p.engine, p.checkpoints, p.fuse, p.probe)
			if d != "" {
				return d
			}
			if p.probe != nil && ref.GoldenDyn >= 4 && (p.probe.Snapshots < 2 || p.probe.Snapshots > vm.MaskRungs) {
				return fmt.Sprintf("%s: %s campaign over %d golden instructions built a %d-snapshot ladder at spacing %d under cap %d",
					model.Name(), p.label, ref.GoldenDyn, p.probe.Snapshots, p.probe.Interval, vm.MaskRungs)
			}
			if rep.Tally != ref.Tally {
				return fmt.Sprintf("%s: tally: %s %+v != scratch %+v", model.Name(), p.label, rep.Tally, ref.Tally)
			}
			for i := range ref.Trials {
				if rep.Trials[i] != ref.Trials[i] {
					return fmt.Sprintf("%s: trial %d: %s %+v != scratch %+v",
						model.Name(), i, p.label, rep.Trials[i], ref.Trials[i])
				}
			}
		}
	}
	return ""
}
