// Package softft is a library for low-budget software-only transient-fault
// tolerance of soft-computing programs, reproducing Khudia & Mahlke,
// "Harnessing Soft Computations for Low-budget Fault Tolerance" (MICRO
// 2014).
//
// Programs are written in a small C-like language and compiled to an SSA
// IR. The library identifies critical loop-carried state variables and
// protects them by selectively duplicating their producer chains, while
// guarding the remaining soft computation with cheap expected-value checks
// derived from value profiles. A simulated machine executes programs,
// models runtime cost, and injects single-bit register faults so the
// protection's coverage can be measured.
//
// Typical use:
//
//	prog, _ := softft.Compile("pipeline", source)
//	prof, _ := prog.ProfileValues(trainInput)
//	hard, stats, _ := prog.Protect(softft.DuplicationWithValueChecks, prof)
//	res, _ := hard.Run(testInput)
package softft

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

// Program is a compiled (and possibly protected) program.
type Program struct {
	name string
	mod  *ir.Module
}

// Compile parses and compiles source written in the workload language into
// an SSA-form program ready to run, profile, or protect.
func Compile(name, source string) (*Program, error) {
	mod, err := lang.Compile(name, source)
	if err != nil {
		return nil, err
	}
	return &Program{name: name, mod: mod}, nil
}

// Name returns the program's name.
func (p *Program) Name() string { return p.name }

// Clone returns an independent deep copy.
func (p *Program) Clone() *Program {
	return &Program{name: p.name, mod: p.mod.Clone()}
}

// Dump renders the program's IR as text.
func (p *Program) Dump() string { return p.mod.String() }

// NumInstrs returns the static instruction count.
func (p *Program) NumInstrs() int { return p.mod.NumInstrs() }

// Input carries the host-side bindings of a program's input globals.
type Input struct {
	binds []func(*vm.Machine) error
}

// NewInput returns an empty input set.
func NewInput() *Input { return &Input{} }

// SetInts binds an integer array to the named global.
func (in *Input) SetInts(global string, vals []int64) *Input {
	in.binds = append(in.binds, func(m *vm.Machine) error {
		return m.BindInputInts(global, vals)
	})
	return in
}

// SetFloats binds a float array to the named global.
func (in *Input) SetFloats(global string, vals []float64) *Input {
	in.binds = append(in.binds, func(m *vm.Machine) error {
		return m.BindInputFloats(global, vals)
	})
	return in
}

// bind applies all bindings to a machine.
func (in *Input) bind(m *vm.Machine) error {
	if in == nil {
		return nil
	}
	for _, b := range in.binds {
		if err := b(m); err != nil {
			return err
		}
	}
	return nil
}

// Result is the outcome of a fault-free run.
type Result struct {
	// Dyn is the dynamic instruction count; Cycles the timing-model cost.
	Dyn, Cycles int64
	// CheckFailures counts expected-value checks that fired (false
	// positives in a fault-free run).
	CheckFailures int64
	mach          *vm.Machine
}

// Ints reads an output global as integers.
func (r *Result) Ints(global string) ([]int64, error) {
	return r.mach.ReadGlobalInts(global)
}

// Floats reads an output global as floats.
func (r *Result) Floats(global string) ([]float64, error) {
	return r.mach.ReadGlobalFloats(global)
}

// Words reads an output global as raw 64-bit words.
func (r *Result) Words(global string) ([]uint64, error) {
	return r.mach.ReadGlobal(global)
}

// Run executes the program with the given input. Check failures are
// counted, not fatal; traps (out-of-bounds, division by zero, runaway
// loops) surface as errors.
func (p *Program) Run(in *Input) (*Result, error) {
	return p.RunContext(context.Background(), in)
}

// RunContext is Run with cancellation: the machine polls ctx's Done channel
// every few thousand simulated instructions and aborts the run with an error
// wrapping ctx.Err() once it is closed.
func (p *Program) RunContext(ctx context.Context, in *Input) (*Result, error) {
	mach, err := p.machine(in)
	if err != nil {
		return nil, err
	}
	var stop <-chan struct{}
	if ctx != nil {
		stop = ctx.Done()
	}
	res := mach.Run(vm.RunOptions{CountChecks: true, Stop: stop})
	if res.Trap != nil {
		if res.Trap.Kind == vm.TrapCancelled && ctx.Err() != nil {
			return nil, fmt.Errorf("softft: %s: %w", p.name, ctx.Err())
		}
		return nil, fmt.Errorf("softft: %s: %w", p.name, res.Trap)
	}
	return &Result{Dyn: res.Dyn, Cycles: res.Cycles, CheckFailures: res.CheckFails, mach: mach}, nil
}

func (p *Program) machine(in *Input) (*vm.Machine, error) {
	mach, err := vm.New(p.mod, vm.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := in.bind(mach); err != nil {
		return nil, err
	}
	mach.Reset()
	return mach, nil
}

// Profile holds per-instruction value profiles collected on a training
// input (the paper's one-time offline step).
type Profile struct {
	data *profile.Data
}

// ProfileValues runs the program under the value profiler (Algorithm 1 of
// the paper, B=5 bins per instruction) and returns the collected profiles.
func (p *Program) ProfileValues(in *Input) (*Profile, error) {
	mach, err := p.machine(in)
	if err != nil {
		return nil, err
	}
	col := profile.NewCollector(profile.DefaultBins)
	res := mach.Run(vm.RunOptions{Profiler: col})
	if res.Trap != nil {
		return nil, fmt.Errorf("softft: profiling %s: %w", p.name, res.Trap)
	}
	return &Profile{data: col.Data()}, nil
}

// Mode names a protection scheme from the process-wide scheme registry. The
// zero value is Original (no protection). Beyond the predefined modes, a
// Mode can name any registered scheme or a '+'-composition of schemes
// ("abft+dupval") obtained from ParseMode or Compose.
type Mode struct {
	name string
}

// Predefined protection modes (the paper's four configurations plus the
// ABFT and control-flow-checking extensions).
var (
	// Original applies no protection.
	Original = Mode{core.SchemeOriginal}
	// DuplicationOnly duplicates the producer chains of loop-carried state
	// variables and compares original against duplicate each iteration.
	DuplicationOnly = Mode{core.SchemeDup}
	// DuplicationWithValueChecks adds profile-derived expected-value
	// checks and the paper's two optimizations; requires a Profile.
	DuplicationWithValueChecks = Mode{core.SchemeDupVal}
	// FullDuplication is the SWIFT-style baseline: duplicate every
	// computation chain feeding a store, branch, call or return.
	FullDuplication = Mode{core.SchemeFullDup}
	// ABFT maintains per-kernel dual checksums over values stored by loop
	// nests and compares them once at each kernel exit.
	ABFT = Mode{core.SchemeABFT}
	// ControlFlowChecks adds CFCSS-style signature checks for branch-target
	// faults, which duplication and value checks do not cover (§IV-C).
	// Compose it after another mode: Compose(DuplicationWithValueChecks,
	// ControlFlowChecks) is "dupval+cfc".
	ControlFlowChecks = Mode{core.SchemeCFC}
)

// ParseMode resolves a scheme name ("dupval") or a '+'-composition
// ("abft+dupval") against the scheme registry. Matching is
// case-insensitive; the returned Mode is canonical, so
// ParseMode(m.String()) round-trips for every valid m.
func ParseMode(s string) (Mode, error) {
	sch, err := core.ParseScheme(s)
	if err != nil {
		return Mode{}, fmt.Errorf("softft: %w", err)
	}
	return Mode{sch.Name()}, nil
}

// Compose combines modes left to right into one that applies each part in
// order ("abft+dupval": checksum the kernels, then duplicate state
// variables and add value checks).
func Compose(modes ...Mode) Mode {
	names := make([]string, len(modes))
	for i, m := range modes {
		names[i] = m.String()
	}
	m, err := ParseMode(strings.Join(names, "+"))
	if err != nil {
		// Unreachable for Modes produced by this package; a hand-rolled
		// invalid Mode fails later at Protect with the same error.
		return Mode{strings.Join(names, "+")}
	}
	return m
}

// Modes returns every registered protection mode in registration order (the
// paper's cost order first, then extensions).
func Modes() []Mode {
	names := core.SchemeNames()
	out := make([]Mode, len(names))
	for i, n := range names {
		out[i] = Mode{n}
	}
	return out
}

// String returns the canonical scheme name ("dupval"). It is stable across
// releases and round-trips through ParseMode.
func (m Mode) String() string {
	if m.name == "" {
		return core.SchemeOriginal
	}
	return m.name
}

// Title returns the human-readable label used in reports and figures
// ("Dup + val chks").
func (m Mode) Title() string { return core.Title(m.String()) }

// NeedsProfile reports whether Protect requires a value Profile for this
// mode.
func (m Mode) NeedsProfile() bool {
	sch, err := core.ParseScheme(m.String())
	if err != nil {
		return false
	}
	return sch.NeedsProfile()
}

// MarshalText implements encoding.TextMarshaler using the canonical name.
func (m Mode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler via ParseMode.
func (m *Mode) UnmarshalText(b []byte) error {
	parsed, err := ParseMode(string(b))
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// Stats summarizes what a protection pass did.
type Stats struct {
	TotalInstrs      int // static instructions before protection
	StateVars        int
	DuplicatedInstrs int
	ValueChecks      int
	DupChecks        int
	ABFTKernels      int // kernel loops covered by ABFT checksums
	ABFTChecks       int // checksum comparisons inserted at kernel exits
	CFCChecks        int // control-flow signature checks inserted
	CFCUnchecked     int // fan-in blocks the signature scheme could not check
}

// Option tunes a protection pass (see the paper's R_thr and the coverage
// thresholds controlling false positives). Options apply on top of the
// defaults used in the paper reproduction, and explicitly setting a
// default's value is honored — including zero.
type Option func(*core.Params)

// WithRangeThreshold sets R_thr, the maximum width of a compact range
// eligible for a range check.
func WithRangeThreshold(w float64) Option {
	return func(p *core.Params) { p.RangeThreshold = w }
}

// WithMinRangeCoverage sets the fraction of profiled values a compact range
// must cover before a range check is inserted.
func WithMinRangeCoverage(c float64) Option {
	return func(p *core.Params) { p.MinRangeCoverage = c }
}

// WithMinValueCoverage sets the coverage required for single-/two-value
// checks.
func WithMinValueCoverage(c float64) Option {
	return func(p *core.Params) { p.MinValueCoverage = c }
}

// WithMinSamples sets the minimum number of profiled observations before an
// instruction is considered for checks.
func WithMinSamples(n uint64) Option {
	return func(p *core.Params) { p.MinSamples = n }
}

// WithOpt1 toggles check pruning along producer chains (paper
// Optimization 1).
func WithOpt1(on bool) Option {
	return func(p *core.Params) { p.Opt1 = on }
}

// WithOpt2 toggles terminating duplication at check-amenable producers
// (paper Optimization 2).
func WithOpt2(on bool) Option {
	return func(p *core.Params) { p.Opt2 = on }
}

// WithDupThroughLoads continues duplication past load instructions (the
// paper stops at loads to save memory traffic).
func WithDupThroughLoads(on bool) Option {
	return func(p *core.Params) { p.DupThroughLoads = on }
}

// Protect returns a protected copy of the program. prof may be nil unless
// mode.NeedsProfile.
func (p *Program) Protect(mode Mode, prof *Profile) (*Program, Stats, error) {
	return p.ProtectWith(mode, prof)
}

// ProtectWith is Protect with explicit tuning options.
func (p *Program) ProtectWith(mode Mode, prof *Profile, opts ...Option) (*Program, Stats, error) {
	params := core.DefaultParams()
	for _, opt := range opts {
		opt(&params)
	}
	var data *profile.Data
	if prof != nil {
		data = prof.data
	}
	mod := p.mod.Clone()
	st, err := core.Protect(mod, mode.String(), data, params)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("softft: %s: %w", p.name, err)
	}
	return &Program{name: p.name + "+" + mode.String(), mod: mod}, Stats{
		TotalInstrs:      st.TotalInstrs,
		StateVars:        st.StateVars,
		DuplicatedInstrs: st.DupInstrs,
		ValueChecks:      st.ValueChecks,
		DupChecks:        st.DupChecks,
		ABFTKernels:      st.ABFTKernels,
		ABFTChecks:       st.ABFTChecks,
		CFCChecks:        st.CFCChecks,
		CFCUnchecked:     st.CFCUnchecked,
	}, nil
}

// Trace runs the program writing a per-instruction execution trace to w
// (at most limit events; 0 = unlimited). Useful for debugging kernels and
// inspecting how a protected program interleaves checks with computation.
func (p *Program) Trace(in *Input, w io.Writer, limit int64) (*Result, error) {
	mach, err := p.machine(in)
	if err != nil {
		return nil, err
	}
	res := mach.Run(vm.RunOptions{CountChecks: true, Tracer: &vm.WriterTracer{W: w, Limit: limit}})
	if res.Trap != nil {
		return nil, fmt.Errorf("softft: %s: %w", p.name, res.Trap)
	}
	return &Result{Dyn: res.Dyn, Cycles: res.Cycles, CheckFailures: res.CheckFails, mach: mach}, nil
}
