package difftest

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/passes"
	"repro/internal/profile"
	"repro/internal/vm"
)

// Invariant names reported by the oracle.
const (
	InvCompile    = "compile"         // frontend rejected or crashed on a generated program
	InvVerify     = "verify"          // IR verifier unclean after a transform
	InvTrap       = "trap"            // a fault-free run trapped
	InvOutput     = "output"          // outputs differ across pipeline/mode combos
	InvCheck      = "check-fired"     // a software check fired on the profiled input
	InvCostOrder  = "cost-order"      // timing cost not ordered across modes
	InvEngine     = "engine-diff"     // precompiled engine disagrees with the tree interpreter
	InvCheckpoint = "checkpoint-diff" // a restored or cloned suspended run disagrees with an uninterrupted one
	InvResume     = "resume-diff"     // resumed journaled campaign disagrees with uninterrupted one
	InvFuse       = "fuse-diff"       // fused dispatch disagrees with the per-instruction path
	InvModel      = "model-diff"      // a fault model's campaign differs across scheduler paths
)

// Failure describes one violated invariant. It implements error.
type Failure struct {
	Invariant string
	Pipeline  string
	Mode      string
	Detail    string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("difftest: invariant %q violated (pipeline=%s mode=%s): %s",
		f.Invariant, f.Pipeline, f.Mode, f.Detail)
}

// Pipeline is one pass-pipeline configuration. Unreachable-block removal
// always runs (the frontend may emit dead blocks); the three optional
// passes are toggled to cross-check that none of them changes observable
// behavior.
type Pipeline struct {
	Name    string
	Mem2Reg bool
	Fold    bool
	DCE     bool
}

// Pipelines is the set the oracle exercises: the full Normalize pipeline
// and one variant with each pass disabled.
var Pipelines = []Pipeline{
	{Name: "full", Mem2Reg: true, Fold: true, DCE: true},
	{Name: "nomem2reg", Mem2Reg: false, Fold: true, DCE: true},
	{Name: "nofold", Mem2Reg: true, Fold: false, DCE: true},
	{Name: "nodce", Mem2Reg: true, Fold: true, DCE: false},
}

// Modes exercised by the oracle: every registered protection scheme, in
// registration order (the four paper schemes in cost order, then
// extensions). A newly registered scheme is property-tested against the
// oracle's invariants automatically.
var Modes = core.SchemeNames()

// OracleConfig tunes a differential check.
type OracleConfig struct {
	MaxDyn int64 // dynamic-instruction watchdog per run
	// SkipCost disables the cost-ordering invariant (used while shrinking
	// failures of other invariants, where deleting statements can flip
	// borderline cycle counts).
	SkipCost bool
	// Only restricts the protection modes exercised (Original is always
	// run as the reference). Nil means all of Modes. When set, the
	// cost-ordering invariant is skipped — it needs the full set.
	Only []string
	// Models restricts the fault models exercised by the model-diff
	// invariant. Nil means every registered model.
	Models []string
}

// DefaultOracleConfig bounds runs far above anything the generator emits.
func DefaultOracleConfig() OracleConfig {
	return OracleConfig{MaxDyn: 50_000_000}
}

// checkParams are the protection parameters the oracle uses for dupval.
// Coverage thresholds are 1.0: a check is only planned when it admits every
// profiled observation, which is what makes invariant 3 (no check fires on
// the profiled input) a theorem rather than a statistical statement.
// Optimization 2 is disabled so DupVal's duplication is a superset of
// DupOnly's and the cost ordering of invariant 4 is well-defined; Opt2
// deliberately trades duplication for cheaper checks and would (correctly)
// break it.
func checkParams() core.Params {
	p := core.DefaultParams()
	p.MinRangeCoverage = 1.0
	p.MinValueCoverage = 1.0
	p.Opt2 = false
	return p
}

// runOut captures everything the oracle compares between two runs.
type runOut struct {
	out        []uint64
	fout       []uint64
	dyn        int64
	cycles     int64
	checkFails int64
	trace      traceHash // zero unless the run was traced (runTraced)
	trap       error
}

// traceHash folds every trace event into an FNV-1a accumulator, so two
// engines' complete per-instruction streams — dyn index, function, UID and
// produced value of every executed instruction — compare without being
// stored.
type traceHash struct {
	n uint64 // events seen
	h uint64
}

func (t *traceHash) mix(v uint64) {
	for i := 0; i < 8; i++ {
		t.h ^= v & 0xff
		t.h *= 1099511628211
		v >>= 8
	}
}

// Trace implements vm.Tracer.
func (t *traceHash) Trace(dyn int64, fn string, in *ir.Instr, bits uint64) {
	t.n++
	t.mix(uint64(dyn))
	for i := 0; i < len(fn); i++ {
		t.h ^= uint64(fn[i])
		t.h *= 1099511628211
	}
	t.mix(uint64(in.UID))
	t.mix(bits)
}

// CheckSource compiles src under every pipeline, applies every protection
// mode, runs everything on the seed-derived inputs and cross-checks the
// four invariants. Returns nil if all hold.
func CheckSource(name, src string, ints []int64, floats []float64, cfg OracleConfig) *Failure {
	var ref *runOut // full pipeline, Original — the single source of truth

	for _, pl := range Pipelines {
		mod, fail := compilePipeline(name, src, pl)
		if fail != nil {
			return fail
		}

		// Profile the unprotected module on the oracle input (protection
		// clones preserve instruction UIDs, so the profile applies to them).
		prof, fail := collectProfile(mod, ints, floats, pl, cfg)
		if fail != nil {
			return fail
		}

		modes := Modes
		if len(cfg.Only) > 0 {
			modes = append([]string{core.SchemeOriginal}, cfg.Only...)
		}
		cycles := make(map[string]int64)
		for _, mode := range modes {
			pm := mod
			if mode != core.SchemeOriginal {
				pm = mod.Clone()
				if _, err := core.Protect(pm, mode, prof, checkParams()); err != nil {
					return &Failure{Invariant: InvVerify, Pipeline: pl.Name, Mode: mode,
						Detail: fmt.Sprintf("protection produced invalid IR: %v", err)}
				}
			}
			r := runModule(pm, ints, floats, cfg.MaxDyn, vm.EngineFast, vm.RunOptions{})
			if r.trap != nil {
				return &Failure{Invariant: InvTrap, Pipeline: pl.Name, Mode: mode,
					Detail: r.trap.Error()}
			}
			// Engine cross-check: the reference tree-walking interpreter
			// must agree with the precompiled engine on every observable,
			// and a traced fast run must reproduce its trace stream.
			traced := runTraced(pm, ints, floats, cfg.MaxDyn, vm.EngineFast)
			tree := runTraced(pm, ints, floats, cfg.MaxDyn, vm.EngineTree)
			if d := diffEngines(r, traced, tree); d != "" {
				return &Failure{Invariant: InvEngine, Pipeline: pl.Name, Mode: mode, Detail: d}
			}
			// Fusion cross-check (full pipeline — the superinstruction layer
			// is pass-independent): the fast engine's fused dispatch (which
			// produced r) must match the forced per-instruction path, whole
			// runs and runs suspended inside fused spans alike.
			if pl.Name == "full" {
				if d := diffFuse(pm, ints, floats, cfg.MaxDyn, r); d != "" {
					return &Failure{Invariant: InvFuse, Pipeline: pl.Name, Mode: mode, Detail: d}
				}
			}
			// Checkpoint cross-check (full pipeline: the invariant probes
			// the vm's snapshot machinery, not the pass pipeline): runs
			// suspended at edge points and finished — resumed in place,
			// restored from a snapshot, cloned with RestoreFrom — must
			// match the uninterrupted run.
			if pl.Name == "full" {
				if d := diffCheckpoint(pm, ints, floats, cfg.MaxDyn); d != "" {
					return &Failure{Invariant: InvCheckpoint, Pipeline: pl.Name, Mode: mode, Detail: d}
				}
				// Resume cross-check (Original only — the invariant probes
				// the campaign journal machinery, which is mode-agnostic):
				// an interrupted-and-resumed journaled campaign must match
				// an uninterrupted one. Programs too short for injection
				// triggers to spread are skipped.
				if mode == core.SchemeOriginal && r.dyn >= 4 {
					if d := diffResume(name, pm, ints, floats); d != "" {
						return &Failure{Invariant: InvResume, Pipeline: pl.Name, Mode: mode, Detail: d}
					}
				}
				// Fault-model cross-check (Original only — model hooks act on
				// the vm layer beneath protection): every registered fault
				// model must produce bit-identical campaign Reports across
				// scratch, checkpointed and unfused paths. Programs
				// too short for triggers to spread are skipped.
				if mode == core.SchemeOriginal && r.dyn >= 4 {
					if d := diffFaultModels(name, pm, ints, floats, cfg.Models); d != "" {
						return &Failure{Invariant: InvModel, Pipeline: pl.Name, Mode: mode, Detail: d}
					}
				}
			}
			if ref == nil {
				ref = r
			} else if d := diffOutputs(ref, r); d != "" {
				return &Failure{Invariant: InvOutput, Pipeline: pl.Name, Mode: mode, Detail: d}
			}
			if r.checkFails != 0 {
				return &Failure{Invariant: InvCheck, Pipeline: pl.Name, Mode: mode,
					Detail: fmt.Sprintf("%d check failures on the profiled input", r.checkFails)}
			}
			cycles[mode] = r.cycles
		}

		if pl.Name == "full" && !cfg.SkipCost && len(cfg.Only) == 0 {
			// The provable orderings: duplication only ever adds work on
			// top of the original; DupVal (with Opt2 off) is DupOnly's
			// exact duplication plus value checks; FullDup duplicates a
			// superset of DupOnly's chains and adds more comparison
			// points. DupVal vs FullDup is deliberately NOT asserted: this
			// very harness produced counterexamples (load-heavy programs
			// where one value check per check-amenable load outruns full
			// duplication, which stops chains at loads) — the paper's
			// Figure-12 ordering is an empirical property of real
			// workloads, not a structural invariant. See EXPERIMENTS.md.
			orderings := [][2]string{
				{core.SchemeOriginal, core.SchemeDup},
				{core.SchemeDup, core.SchemeDupVal},
				{core.SchemeDup, core.SchemeFullDup},
			}
			for _, o := range orderings {
				lo, hi := o[0], o[1]
				if cycles[lo] > cycles[hi] {
					return &Failure{Invariant: InvCostOrder, Pipeline: pl.Name, Mode: hi,
						Detail: fmt.Sprintf("cycles(%s)=%d > cycles(%s)=%d",
							lo, cycles[lo], hi, cycles[hi])}
				}
			}
		}
	}
	return nil
}

// compilePipeline runs the frontend and the pipeline's passes, verifying
// the module after codegen and after every individual transform.
func compilePipeline(name, src string, pl Pipeline) (*ir.Module, *Failure) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, &Failure{Invariant: InvCompile, Pipeline: pl.Name, Detail: fmt.Sprintf("parse: %v", err)}
	}
	mod, err := lang.Codegen(name, prog)
	if err != nil {
		return nil, &Failure{Invariant: InvCompile, Pipeline: pl.Name, Detail: fmt.Sprintf("codegen: %v", err)}
	}
	verify := func(stage string) *Failure {
		mod.Renumber()
		if err := mod.Verify(); err != nil {
			return &Failure{Invariant: InvVerify, Pipeline: pl.Name,
				Detail: fmt.Sprintf("after %s: %v", stage, err)}
		}
		return nil
	}
	if f := verify("codegen"); f != nil {
		return nil, f
	}
	steps := []struct {
		name    string
		enabled bool
		run     func(*ir.Func)
	}{
		{"remove-unreachable", true, passes.RemoveUnreachable},
		{"mem2reg", pl.Mem2Reg, passes.Mem2Reg},
		{"fold", pl.Fold, passes.Fold},
		{"dce", pl.DCE, passes.DCE},
	}
	for _, st := range steps {
		if !st.enabled {
			continue
		}
		for _, f := range mod.Funcs {
			st.run(f)
		}
		if f := verify(st.name); f != nil {
			return nil, f
		}
	}
	return mod, nil
}

// collectProfile runs the unprotected module under the value profiler.
func collectProfile(mod *ir.Module, ints []int64, floats []float64, pl Pipeline, cfg OracleConfig) (*profile.Data, *Failure) {
	mach, err := newMachine(mod, ints, floats, cfg.MaxDyn)
	if err != nil {
		return nil, &Failure{Invariant: InvCompile, Pipeline: pl.Name, Detail: err.Error()}
	}
	col := profile.NewCollector(profile.DefaultBins)
	if res := mach.Run(vm.RunOptions{Profiler: col}); res.Trap != nil {
		return nil, &Failure{Invariant: InvTrap, Pipeline: pl.Name, Mode: "profiling",
			Detail: res.Trap.Error()}
	}
	return col.Data(), nil
}

func newMachine(mod *ir.Module, ints []int64, floats []float64, maxDyn int64) (*vm.Machine, error) {
	return newMachineEngine(mod, ints, floats, maxDyn, vm.EngineFast)
}

func newMachineEngine(mod *ir.Module, ints []int64, floats []float64, maxDyn int64, engine vm.EngineKind) (*vm.Machine, error) {
	vcfg := vm.DefaultConfig()
	vcfg.Engine = engine
	if maxDyn > 0 {
		vcfg.MaxDyn = maxDyn
	}
	mach, err := vm.New(mod, vcfg)
	if err != nil {
		return nil, err
	}
	if err := bindInputs(mach, mod, ints, floats); err != nil {
		return nil, err
	}
	mach.Reset()
	return mach, nil
}

// bindInputs binds the generator's "in"/"fin" globals on m, each only when
// mod declares it (fuzzed sources may drop either).
func bindInputs(m *vm.Machine, mod *ir.Module, ints []int64, floats []float64) error {
	if mod.Global("in") != nil {
		if err := m.BindInputInts("in", ints); err != nil {
			return err
		}
	}
	if mod.Global("fin") != nil {
		return m.BindInputFloats("fin", floats)
	}
	return nil
}

// runModule executes a module fault-free under opts, counting (not trapping
// on) check failures, and captures the observable outputs.
func runModule(mod *ir.Module, ints []int64, floats []float64, maxDyn int64, engine vm.EngineKind, opts vm.RunOptions) *runOut {
	mach, err := newMachineEngine(mod, ints, floats, maxDyn, engine)
	if err != nil {
		return &runOut{trap: err}
	}
	opts.CountChecks = true
	res := mach.Run(opts)
	if res.Trap != nil {
		return &runOut{trap: res.Trap}
	}
	out, err := mach.ReadGlobal("out")
	if err != nil {
		return &runOut{trap: err}
	}
	fout, err := mach.ReadGlobal("fout")
	if err != nil {
		return &runOut{trap: err}
	}
	return &runOut{out: out, fout: fout, dyn: res.Dyn, cycles: res.Cycles,
		checkFails: res.CheckFails}
}

// runTraced is runModule with a hashing tracer attached; the stream's hash
// lands in runOut.trace. A traced fast-engine run takes the per-instruction
// path (tracers disable fused dispatch).
func runTraced(mod *ir.Module, ints []int64, floats []float64, maxDyn int64, engine vm.EngineKind) *runOut {
	th := &traceHash{h: 14695981039346656037}
	r := runModule(mod, ints, floats, maxDyn, engine, vm.RunOptions{Tracer: th})
	r.trace = *th
	return r
}

// diffFinished runs a suspended machine to completion and compares every
// observable against the uninterrupted reference.
func diffFinished(label string, mach *vm.Machine, ref *runOut) string {
	res := mach.Run(vm.RunOptions{CountChecks: true})
	if res.Trap != nil {
		return fmt.Sprintf("%s run trapped: %v", label, res.Trap)
	}
	out, err := mach.ReadGlobal("out")
	if err != nil {
		return err.Error()
	}
	fout, err := mach.ReadGlobal("fout")
	if err != nil {
		return err.Error()
	}
	got := &runOut{out: out, fout: fout, dyn: res.Dyn, cycles: res.Cycles,
		checkFails: res.CheckFails}
	if d := diffOutputs(ref, got); d != "" {
		return label + " " + d
	}
	if got.dyn != ref.dyn {
		return fmt.Sprintf("%s dyn: %d != %d", label, got.dyn, ref.dyn)
	}
	if got.cycles != ref.cycles {
		return fmt.Sprintf("%s cycles: %d != %d", label, got.cycles, ref.cycles)
	}
	if got.checkFails != ref.checkFails {
		return fmt.Sprintf("%s checkFails: %d != %d", label, got.checkFails, ref.checkFails)
	}
	return ""
}

// diffOutputs compares raw output words and returns a description of the
// first mismatch ("" when identical). Bitwise comparison: float outputs
// must match exactly, NaN payloads included — every pipeline and mode runs
// the same arithmetic in the same order.
func diffOutputs(a, b *runOut) string {
	for i := range a.out {
		if a.out[i] != b.out[i] {
			return fmt.Sprintf("out[%d]: %d != %d", i, int64(a.out[i]), int64(b.out[i]))
		}
	}
	for i := range a.fout {
		if a.fout[i] != b.fout[i] {
			return fmt.Sprintf("fout[%d]: %#x != %#x", i, a.fout[i], b.fout[i])
		}
	}
	return ""
}

// diffEngines compares a fast-engine run against a traced tree-interpreter
// run of the same module. The engines promise bit-for-bit equivalence, so
// every observable is compared: outputs, dynamic instruction count,
// timing-model cycles and check-failure count of fast (the fused reference
// run), and the hashed trace stream of traced (a traced fast run) — every
// executed instruction, in order, with the value it produced.
func diffEngines(fast, traced, tree *runOut) string {
	if tree.trap != nil {
		return fmt.Sprintf("tree engine trapped where fast engine completed: %v", tree.trap)
	}
	if traced.trap != nil {
		return fmt.Sprintf("traced fast run trapped where the untraced run completed: %v", traced.trap)
	}
	if d := diffOutputs(fast, tree); d != "" {
		return "tree vs fast " + d
	}
	if fast.dyn != tree.dyn {
		return fmt.Sprintf("dyn: fast=%d tree=%d", fast.dyn, tree.dyn)
	}
	if fast.cycles != tree.cycles {
		return fmt.Sprintf("cycles: fast=%d tree=%d", fast.cycles, tree.cycles)
	}
	if fast.checkFails != tree.checkFails {
		return fmt.Sprintf("checkFails: fast=%d tree=%d", fast.checkFails, tree.checkFails)
	}
	if traced.trace != tree.trace {
		return fmt.Sprintf("trace stream: fast=%d events (hash %#x) tree=%d events (hash %#x)",
			traced.trace.n, traced.trace.h, tree.trace.n, tree.trace.h)
	}
	return ""
}

// diffFuse compares the fast engine's fused dispatch against the forced
// per-instruction path. The reference ref is a fused run (FuseAuto with no
// tracer fuses); the unfused twin must reproduce it bit for bit. Two
// off-center suspension cuts then land events inside fused spans: the fused
// and unfused machines must pause at the same instruction with
// interchangeable snapshots and finish identically.
func diffFuse(mod *ir.Module, ints []int64, floats []float64, maxDyn int64, ref *runOut) string {
	unfused := runModule(mod, ints, floats, maxDyn, vm.EngineFast, vm.RunOptions{Fuse: vm.FuseOff})
	if unfused.trap != nil {
		return fmt.Sprintf("unfused run trapped where fused run completed: %v", unfused.trap)
	}
	if d := diffOutputs(ref, unfused); d != "" {
		return "unfused vs fused " + d
	}
	if ref.dyn != unfused.dyn || ref.cycles != unfused.cycles || ref.checkFails != unfused.checkFails {
		return fmt.Sprintf("unfused dyn/cycles/checkFails %d/%d/%d, fused %d/%d/%d",
			unfused.dyn, unfused.cycles, unfused.checkFails, ref.dyn, ref.cycles, ref.checkFails)
	}
	for _, cut := range []int64{ref.dyn / 3, ref.dyn - 1} {
		if cut < 1 {
			continue
		}
		fm, err := newMachine(mod, ints, floats, maxDyn)
		if err != nil {
			return err.Error()
		}
		um, err := newMachine(mod, ints, floats, maxDyn)
		if err != nil {
			return err.Error()
		}
		fres := fm.Run(vm.RunOptions{CountChecks: true, SuspendAtDyn: cut})
		ures := um.Run(vm.RunOptions{CountChecks: true, SuspendAtDyn: cut, Fuse: vm.FuseOff})
		if fres.Trap == nil || fres.Trap.Kind != vm.TrapSuspended ||
			ures.Trap == nil || ures.Trap.Kind != vm.TrapSuspended {
			return fmt.Sprintf("no suspension at dyn %d: fused=%v unfused=%v", cut, fres.Trap, ures.Trap)
		}
		if fres.Trap.Dyn != ures.Trap.Dyn {
			return fmt.Sprintf("cut %d: fused suspended at dyn %d, unfused at %d", cut, fres.Trap.Dyn, ures.Trap.Dyn)
		}
		snap, err := um.Snapshot()
		if err != nil {
			return err.Error()
		}
		if !fm.MatchesSnapshot(snap) {
			return fmt.Sprintf("cut %d: fused machine state diverges from unfused snapshot", cut)
		}
		if d := diffFinished(fmt.Sprintf("fused cut %d", cut), fm, ref); d != "" {
			return d
		}
		if d := diffFinished(fmt.Sprintf("unfused cut %d", cut), um, ref); d != "" {
			return d
		}
	}
	return ""
}

// Check generates the program for seed, derives its inputs and runs the
// oracle — the single entry point used by cmd/difftest and the tests.
func Check(seed int64, gcfg GenConfig, ocfg OracleConfig) (*GenProgram, *Failure) {
	p := Generate(seed, gcfg)
	ints, floats := InputsForSeed(seed)
	return p, CheckSource(fmt.Sprintf("gen%d", seed), p.Source(), ints, floats, ocfg)
}
