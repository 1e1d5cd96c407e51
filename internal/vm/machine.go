package vm

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/ir"
)

// EngineKind selects the execution engine.
type EngineKind uint8

// Engines. Both implement the same observable semantics — outputs, traps,
// Dyn, Cycles, check behavior, trace stream and fault attribution are
// bit-identical; the difftest oracle cross-checks them on every run.
const (
	// EngineFast (the default) precompiles each function into a flat
	// instruction stream with pre-resolved operands (lower.go/engine.go).
	// The lowering is cached on the module and shared across machines.
	EngineFast EngineKind = iota
	// EngineTree is the original tree-walking interpreter (exec.go), kept
	// as the reference for differential testing.
	EngineTree
)

// Config sizes the simulated machine.
type Config struct {
	StackWords int   // words reserved for alloca frames
	MaxDyn     int64 // watchdog: dynamic instruction budget
	MaxDepth   int   // call depth limit
	Timing     TimingConfig
	Engine     EngineKind
}

// DefaultConfig returns the configuration used by all experiments.
func DefaultConfig() Config {
	return Config{
		StackWords: 1 << 16,
		MaxDyn:     400_000_000,
		MaxDepth:   512,
		Timing:     DefaultTiming(),
	}
}

// Profiler receives every profiled value produced during a run. Implemented
// by the value profiler (package profile).
type Profiler interface {
	Record(in *ir.Instr, bits uint64)
}

// FaultHook is the one injection mechanism of every fault model that
// corrupts architectural state at an instruction: both engines call it from
// their per-instruction event point, the place a run suspends at, so a hook
// sees the machine exactly as a run parked there with SuspendAtDyn would,
// and mutates it through the fault-access surface (faultaccess.go).
type FaultHook interface {
	// Next returns the dyn at which the hook is next due, or math.MaxInt64
	// once it owes nothing. It may only move later, and only in Fire: the
	// engines fold it into their event threshold, where a stale-low value
	// costs one extra slow-path pass and nothing else.
	Next() int64
	// Fire runs at the first fault-eligible (non-phi) instruction whose
	// pre-increment dyn reaches Next(), before that instruction executes;
	// m.Dyn() is that dyn. A hook that leaves Next() at or below it fires
	// again at the next eligible instruction.
	Fire(m *Machine)
}

// RunOptions controls a single run.
type RunOptions struct {
	Profiler Profiler
	// Hook, when set, fires at its due instructions (FaultHook).
	Hook FaultHook
	// Tracer, when set, receives one event per executed instruction.
	Tracer Tracer
	// CountChecks makes check failures increment counters instead of
	// trapping; used for the false-positive experiment.
	CountChecks bool
	// DisabledChecks suppresses specific CheckIDs. The fault campaign
	// disables checks that fire on the fault-free golden run, modeling the
	// paper's policy of recovering once per check and ignoring a check
	// that fails again (persistent false positive).
	DisabledChecks map[int]bool
	// Stop, when non-nil, is polled every few thousand dynamic
	// instructions; once it is closed the run terminates with a
	// TrapCancelled. Program.RunContext wires a context's Done channel
	// here so long runs are interruptible, and a campaign's TrialTimeout
	// closes a per-attempt channel here to reap trials the MaxDyn watchdog
	// cannot bound. Unset (nil), the poll costs nothing.
	Stop <-chan struct{}
	// SuspendAtDyn, when positive, pauses the run at the first
	// fault-eligible (non-phi) instruction whose dynamic index reaches the
	// value: Run returns a TrapSuspended result, the machine keeps the
	// in-flight call chain, and the next Run continues where it left off.
	// A suspended machine can be captured with Snapshot and re-armed on any
	// machine over the same module with Restore. The suspend point is folded
	// into the engine's unified event threshold, so the dispatch loop pays
	// nothing when it is unset. Fast engine only; the tree interpreter
	// ignores it.
	SuspendAtDyn int64
	// Fuse controls superinstruction dispatch (fast engine only): FuseAuto
	// (the default) executes annotated hot instruction pairs through fused
	// straight-line handlers whenever the span fits below the unified event
	// threshold; FuseOff forces the per-instruction path. The two settings
	// are bit-identical in every observable — Result, traces, timing,
	// snapshots, fault attribution — which the fusion equivalence
	// suite and the difftest fuse-diff invariant enforce; FuseOff exists as
	// an escape hatch and as the oracle's reference leg.
	Fuse FuseMode
}

// Result summarizes a completed (or trapped) run.
type Result struct {
	Ret        uint64
	Dyn        int64 // dynamic instructions executed
	Cycles     int64 // timing-model cycles
	Trap       *Trap // nil when the program ran to completion
	CheckFails int64 // only populated with RunOptions.CountChecks
	// PerCheckFails maps CheckID -> fail count (CountChecks mode only).
	PerCheckFails map[int]int64
}

// funcInfo caches static per-function interpreter metadata.
type funcInfo struct {
	slotTypes []ir.Type // frame slot -> static type
}

// vmShared is the module-wide execution artifact held in Module.ExecCache:
// interpreter metadata plus, when the fast engine is in use, the lowering.
// Each part is built at most once per module revision; every machine over
// the same revision shares both. All fields are immutable once built.
type vmShared struct {
	infoOnce sync.Once
	info     map[*ir.Func]*funcInfo
	engOnce  sync.Once
	eng      *engModule
}

// Machine interprets one module instance. Not safe for concurrent use; the
// fault campaign gives each worker its own Machine.
type Machine struct {
	mod *ir.Module
	cfg Config

	mem        []uint64
	globalBase map[string]uint64
	stackBase  uint64
	memWords   uint64
	sp         uint64
	// memHi bounds the words a run has written: every mem word at or above
	// it is zero. Only the store ops, SetMemWord, Reset and RestoreFrom
	// write memory: the first two raise the bound (wrote), the last two set
	// it. So Reset, RestoreFrom, Snapshot and the snapshot compares touch
	// mem[:memHi] only — the globals and the stack a program actually used,
	// not the whole stack reservation.
	memHi uint64

	inputs map[string][]uint64 // host-bound globals, re-applied on Reset

	timing *timing
	lats   [latCount]int64 // latency per latKind, baked from cfg.Timing
	info   map[*ir.Func]*funcInfo
	main   *ir.Func

	// Precompiled-engine state (nil/zero under EngineTree). The lowering is
	// shared module-wide; frame pools and scratch buffers are per machine.
	eng         *engModule
	engMain     *engFunc
	pools       [][]*frame
	phiScratch  []uint64
	callScratch []uint64

	// Per-run state.
	dyn           int64
	opts          RunOptions
	stop          <-chan struct{}
	laxPhis       bool
	checkFails    int64
	perCheckFails map[int]int64
	fusedSteps    int64 // diagnostic: fused-pair handlers executed (fuse.go)
	// hookAt caches opts.Hook.Next() (math.MaxInt64 without a hook); only
	// fireHook moves it. firing and firingIn are the frame and instruction
	// a hook is firing at, nil outside Fire. redirect is the block a hook
	// sent the branch it fired at to (RedirectBranch); that branch's
	// handler consumes it.
	hookAt   int64
	firing   *frame
	firingIn *ir.Instr
	redirect *ir.Block
	// acc, when set, records the run's memory accesses (RecordAccesses);
	// nil on every machine but a campaign's golden one.
	acc *AccessMasks

	// Suspension state (fast engine only). susp holds the in-flight call
	// chain, innermost-first, after a Run returns TrapSuspended or after
	// Restore; the next Run consumes it. resuming/resumePos drive the
	// re-entry drill-down (see execResumeNext): resumePos is -1 except
	// while the resumed chain is being rebuilt on the Go stack.
	susp      []suspLevel
	resuming  []suspLevel
	resumePos int
}

// New builds a machine for mod: lays out globals from address 1 (address 0
// is a null guard) and pre-computes per-function metadata.
func New(mod *ir.Module, cfg Config) (*Machine, error) {
	main := mod.Func("main")
	if main == nil {
		return nil, fmt.Errorf("vm: module %s has no main", mod.Name)
	}
	if len(main.Params) != 0 {
		return nil, fmt.Errorf("vm: main must take no parameters")
	}
	m := &Machine{
		mod:        mod,
		cfg:        cfg,
		globalBase: make(map[string]uint64),
		inputs:     make(map[string][]uint64),
		timing:     newTiming(cfg.Timing),
		lats:       latTableFrom(cfg.Timing),
		info:       make(map[*ir.Func]*funcInfo),
		main:       main,
	}
	addr := uint64(1)
	for _, g := range mod.Globals {
		m.globalBase[g.Name] = addr
		addr += uint64(g.Size)
	}
	m.stackBase = addr
	m.memWords = addr + uint64(cfg.StackWords)
	m.mem = make([]uint64, m.memWords)

	// Static per-function metadata and the fast-engine lowering are both
	// derived from the module alone, so the thousands of machines a fault
	// campaign creates share one copy via the module's revision-keyed cache.
	sh := mod.ExecCache(func() any { return new(vmShared) }).(*vmShared)
	sh.infoOnce.Do(func() {
		info := make(map[*ir.Func]*funcInfo, len(mod.Funcs))
		for _, f := range mod.Funcs {
			fi := &funcInfo{slotTypes: make([]ir.Type, f.NumValues())}
			for _, p := range f.Params {
				fi.slotTypes[p.ID] = p.Ty
			}
			f.Instrs(func(in *ir.Instr) bool {
				if in.ID < len(fi.slotTypes) {
					fi.slotTypes[in.ID] = in.Ty
				}
				return true
			})
			info[f] = fi
		}
		sh.info = info
	})
	m.info = sh.info
	if cfg.Engine == EngineFast {
		sh.engOnce.Do(func() { sh.eng = lowerModule(mod) })
		m.eng = sh.eng
		m.engMain = m.eng.byFn[main]
		m.pools = make([][]*frame, len(m.eng.funcs))
	}
	m.Reset()
	return m, nil
}

// Module returns the module this machine executes.
func (m *Machine) Module() *ir.Module { return m.mod }

// BindInput stores data to be copied into the named global on every Reset.
func (m *Machine) BindInput(name string, data []uint64) error {
	g := m.mod.Global(name)
	if g == nil {
		return fmt.Errorf("vm: no global %q", name)
	}
	if len(data) > g.Size {
		return fmt.Errorf("vm: input %q: %d words exceeds global size %d", name, len(data), g.Size)
	}
	m.inputs[name] = data
	return nil
}

// BindInputInts is BindInput for signed integers.
func (m *Machine) BindInputInts(name string, data []int64) error {
	w := make([]uint64, len(data))
	for i, v := range data {
		w[i] = uint64(v)
	}
	return m.BindInput(name, w)
}

// BindInputFloats is BindInput for floats.
func (m *Machine) BindInputFloats(name string, data []float64) error {
	w := make([]uint64, len(data))
	for i, v := range data {
		w[i] = math.Float64bits(v)
	}
	return m.BindInput(name, w)
}

// wrote raises the written-memory bound over a word just stored at addr.
// Every memory writer other than Reset and RestoreFrom calls it.
func (m *Machine) wrote(addr uint64) {
	if addr >= m.memHi {
		m.memHi = addr + 1
	}
}

// Reset restores memory to its initial state (global initializers plus bound
// inputs) and rewinds all run counters. Call before every Run.
func (m *Machine) Reset() {
	// Drop any suspended execution state: the frames return to their pools
	// and the next Run starts from main's entry.
	for _, l := range m.susp {
		m.putFrame(l.ef, l.fr)
	}
	m.susp = m.susp[:0]
	m.resuming = nil
	m.resumePos = -1
	m.acc = nil
	clear(m.mem[:m.memHi])
	m.memHi = m.stackBase
	for _, g := range m.mod.Globals {
		base := m.globalBase[g.Name]
		copy(m.mem[base:base+uint64(g.Size)], g.Init)
	}
	for name, data := range m.inputs {
		base := m.globalBase[name]
		copy(m.mem[base:], data)
	}
	m.sp = m.stackBase
	m.dyn = 0
	m.fusedSteps = 0
	m.laxPhis = false
	m.checkFails = 0
	m.perCheckFails = nil
	m.timing.reset()
}

// Dyn returns the machine's dynamic-instruction counter — on a suspended
// machine, the index of the next instruction to execute.
func (m *Machine) Dyn() int64 { return m.dyn }

// ReadGlobal copies the current contents of the named global out of memory.
func (m *Machine) ReadGlobal(name string) ([]uint64, error) {
	g := m.mod.Global(name)
	if g == nil {
		return nil, fmt.Errorf("vm: no global %q", name)
	}
	base := m.globalBase[name]
	out := make([]uint64, g.Size)
	copy(out, m.mem[base:base+uint64(g.Size)])
	return out, nil
}

// ReadGlobalInts reads a global as signed integers.
func (m *Machine) ReadGlobalInts(name string) ([]int64, error) {
	w, err := m.ReadGlobal(name)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(w))
	for i, v := range w {
		out[i] = int64(v)
	}
	return out, nil
}

// ReadGlobalFloats reads a global as floats.
func (m *Machine) ReadGlobalFloats(name string) ([]float64, error) {
	w, err := m.ReadGlobal(name)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(w))
	for i, v := range w {
		out[i] = math.Float64frombits(v)
	}
	return out, nil
}

// Run executes main under opts. The machine must be Reset first (Run does
// not Reset so callers can pre-poke memory in tests). On a suspended or
// restored machine, Run instead continues the captured execution from its
// suspend point; counters accumulate across the suspension, so the final
// Result of a suspend/resume chain is bit-identical to one uninterrupted
// run, and every field of a suspended Result is exact.
func (m *Machine) Run(opts RunOptions) *Result {
	m.opts = opts
	m.stop = opts.Stop
	m.hookAt = math.MaxInt64
	m.redirect = nil // a trap between a hook and its branch leaves one behind
	if opts.Hook != nil {
		m.hookAt = opts.Hook.Next()
	}
	if opts.CountChecks && m.perCheckFails == nil {
		m.perCheckFails = make(map[int]int64)
	}
	var ret uint64
	var trap *Trap
	if m.eng != nil {
		if len(m.susp) > 0 {
			ret, trap = m.resumeExec()
		} else {
			ret, trap = m.execCall(m.engMain, nil, 0)
		}
	} else {
		ret, trap = m.call(m.main, nil, 0)
	}
	return &Result{
		Ret:           ret,
		Dyn:           m.dyn,
		Cycles:        m.timing.cycles(),
		Trap:          trap,
		CheckFails:    m.checkFails,
		PerCheckFails: m.perCheckFails,
	}
}
