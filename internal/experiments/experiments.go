// Package experiments regenerates every table and figure of the paper's
// evaluation on the reproduced stack: it compiles each benchmark, profiles
// it on its training input, builds the protected variants (Dup only,
// Dup + val chks, full duplication), runs fault-injection campaigns, and
// renders the same rows/series the paper reports.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Variant is one protected build of one workload.
type Variant struct {
	Mode   string
	Module *ir.Module
	Stats  *core.Stats
	// Cycles is the build's golden cycle count on the test input (Figure 12).
	Cycles int64
}

// Prepared caches everything derivable without fault injection for one
// workload: the compiled module, its training profile, and every variant
// built from them so far.
type Prepared struct {
	Workload *workloads.Workload
	Profile  *profile.Data

	mod      *ir.Module // the unprotected compilation every variant clones
	mu       sync.Mutex
	variants map[string]*Variant
}

var (
	prepMu    sync.Mutex
	prepCache = map[string]*Prepared{}
)

// Prepare compiles and profiles one workload (cached). Variants are built on
// first use by Prepared.Variant.
func Prepare(w *workloads.Workload) (*Prepared, error) {
	prepMu.Lock()
	defer prepMu.Unlock()
	if p, ok := prepCache[w.Name]; ok {
		return p, nil
	}
	mod, err := w.Compile()
	if err != nil {
		return nil, err
	}

	// Value profiling on the training input (one-time offline step, §III-C1).
	prof, err := profileOn(w, mod, workloads.Train)
	if err != nil {
		return nil, err
	}
	p := &Prepared{Workload: w, Profile: prof, mod: mod, variants: map[string]*Variant{}}
	prepCache[w.Name] = p
	return p, nil
}

// Variant returns the build of mode — a registered scheme or a
// '+'-composition such as "abft+dupval" — protecting it and timing it
// fault-free on the test input the first time it is asked for.
func (p *Prepared) Variant(mode string) (*Variant, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if v, ok := p.variants[mode]; ok {
		return v, nil
	}
	sch, err := core.ParseScheme(mode)
	if err != nil {
		return nil, err
	}
	var prof *profile.Data
	if sch.NeedsProfile() {
		prof = p.Profile
	}
	m := p.mod.Clone()
	stats, err := core.Protect(m, mode, prof, core.DefaultParams())
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", p.Workload.Name, mode, err)
	}
	res, err := timedRun(p.Workload, m, workloads.Test)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", p.Workload.Name, mode, err)
	}
	v := &Variant{Mode: mode, Module: m, Stats: stats, Cycles: res.Cycles}
	p.variants[mode] = v
	return v, nil
}

// runOn executes mod fault-free on w's kind input; a trap is an error.
func runOn(w *workloads.Workload, mod *ir.Module, kind workloads.InputKind, opts vm.RunOptions) (*vm.Result, error) {
	mach, err := vm.New(mod, vm.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := w.Bind(mach, kind); err != nil {
		return nil, err
	}
	mach.Reset()
	res := mach.Run(opts)
	if res.Trap != nil {
		return nil, fmt.Errorf("%s: fault-free run trapped: %v", w.Name, res.Trap)
	}
	return res, nil
}

// profileOn collects a value profile of mod on w's kind input.
func profileOn(w *workloads.Workload, mod *ir.Module, kind workloads.InputKind) (*profile.Data, error) {
	col := profile.NewCollector(profile.DefaultBins)
	if _, err := runOn(w, mod, kind, vm.RunOptions{Profiler: col}); err != nil {
		return nil, fmt.Errorf("profiling: %w", err)
	}
	return col.Data(), nil
}

// timedRun measures mod's fault-free cycles on w's kind input, counting
// rather than trapping on check failures (the Figure 12 procedure).
func timedRun(w *workloads.Workload, mod *ir.Module, kind workloads.InputKind) (*vm.Result, error) {
	return runOn(w, mod, kind, vm.RunOptions{CountChecks: true})
}

// Overhead returns the runtime overhead of mode vs the original build.
func (p *Prepared) Overhead(mode string) (float64, error) {
	base, err := p.Variant(core.SchemeOriginal)
	if err != nil {
		return 0, err
	}
	v, err := p.Variant(mode)
	if err != nil || base.Cycles == 0 {
		return 0, err
	}
	return float64(v.Cycles)/float64(base.Cycles) - 1, nil
}

// Campaign runs a fault campaign for one workload/mode pair on the given
// input kind.
func Campaign(p *Prepared, mode string, kind workloads.InputKind, cfg fault.Config) (*fault.Report, error) {
	v, err := p.Variant(mode)
	if err != nil {
		return nil, err
	}
	return fault.Run(context.Background(), p.Workload.Target(kind), v.Module, core.Title(mode), cfg)
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
