package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/vm"
)

// crcSrc mirrors the paper's Figure 3 mp3dec kernel: crc and len are
// loop-carried state variables; tableVal is a table lookup feeding the crc
// update.
const crcSrc = `
global int data[256];
global int crc_table[64];
global int out[1];
void main() {
	int crc = 0xffff;
	int len = 256;
	int i = 0;
	while (len >= 8) {
		int d = data[i];
		int tableVal = crc_table[(d ^ crc) & 63];
		crc = ((crc << 8) ^ tableVal) & 0xffffffff;
		i += 1;
		len -= 8;
	}
	out[0] = crc;
}`

func compile(t testing.TB, src string) *ir.Module {
	t.Helper()
	m, err := lang.Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

func crcInputs(seed int64) (data, table []int64) {
	rng := rand.New(rand.NewSource(seed))
	data = make([]int64, 256)
	table = make([]int64, 64)
	for i := range data {
		data[i] = int64(rng.Intn(256))
	}
	for i := range table {
		table[i] = int64(rng.Intn(1 << 16))
	}
	return data, table
}

func runCRC(t testing.TB, m *ir.Module, opts vm.RunOptions) (*vm.Result, int64) {
	t.Helper()
	mach, err := vm.New(m, vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, table := crcInputs(1)
	mach.BindInputInts("data", data)
	mach.BindInputInts("crc_table", table)
	mach.Reset()
	res := mach.Run(opts)
	out, _ := mach.ReadGlobalInts("out")
	return res, out[0]
}

func TestFindStateVarsOnCRCKernel(t *testing.T) {
	m := compile(t, crcSrc)
	svs := FindStateVars(m.Func("main"))
	// crc, len, i are all loop-carried.
	if len(svs) != 3 {
		t.Fatalf("state vars = %d, want 3 (crc, len, i)\n%s", len(svs), m.Func("main").Dump())
	}
	for _, sv := range svs {
		if sv.Phi.Op != ir.OpPhi {
			t.Error("state var is not a phi")
		}
		if len(sv.Updates) == 0 {
			t.Error("state var without back-edge update")
		}
		if sv.Loop.Header != sv.Phi.Blk {
			t.Error("state var phi not in its loop header")
		}
	}
}

func TestDupOnlyPreservesSemantics(t *testing.T) {
	orig := compile(t, crcSrc)
	prot := orig.Clone()
	stats, err := Protect(prot, SchemeDup, nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if stats.StateVars != 3 {
		t.Errorf("stats.StateVars = %d", stats.StateVars)
	}
	if stats.DupInstrs == 0 || stats.DupChecks == 0 {
		t.Fatalf("nothing duplicated: %+v", stats)
	}

	r0, o0 := runCRC(t, orig, vm.RunOptions{})
	r1, o1 := runCRC(t, prot, vm.RunOptions{})
	if r0.Trap != nil || r1.Trap != nil {
		t.Fatalf("traps: %v / %v", r0.Trap, r1.Trap)
	}
	if o0 != o1 {
		t.Fatalf("protected output %d != original %d", o1, o0)
	}
	if r1.Dyn <= r0.Dyn {
		t.Errorf("protected dyn %d <= original %d", r1.Dyn, r0.Dyn)
	}
	if r1.Cycles <= r0.Cycles {
		t.Errorf("protected cycles %d <= original %d", r1.Cycles, r0.Cycles)
	}
}

// profileCRC runs the CRC kernel collecting value profiles.
func profileCRC(t testing.TB, m *ir.Module) *profile.Data {
	t.Helper()
	mach, err := vm.New(m, vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, table := crcInputs(1)
	mach.BindInputInts("data", data)
	mach.BindInputInts("crc_table", table)
	mach.Reset()
	col := profile.NewCollector(profile.DefaultBins)
	if res := mach.Run(vm.RunOptions{Profiler: col}); res.Trap != nil {
		t.Fatalf("profiling trap: %v", res.Trap)
	}
	return col.Data()
}

func TestDupValPreservesSemanticsOnTrainingInput(t *testing.T) {
	orig := compile(t, crcSrc)
	prof := profileCRC(t, orig)

	prot := orig.Clone()
	p := DefaultParams()
	// Full coverage requirement: on the training input no check may fire.
	p.MinRangeCoverage = 1.0
	p.MinValueCoverage = 1.0
	stats, err := Protect(prot, SchemeDupVal, prof, p)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ValueChecks == 0 {
		t.Fatalf("no value checks inserted: %+v\n%s", stats, prot.Func("main").Dump())
	}

	_, o0 := runCRC(t, orig, vm.RunOptions{})
	r1, o1 := runCRC(t, prot, vm.RunOptions{CountChecks: true})
	if r1.Trap != nil {
		t.Fatalf("trap: %v", r1.Trap)
	}
	if o0 != o1 {
		t.Fatalf("output %d != %d", o1, o0)
	}
	if r1.CheckFails != 0 {
		t.Fatalf("checks fired on training input: %d", r1.CheckFails)
	}
}

func TestDupValRequiresProfiles(t *testing.T) {
	m := compile(t, crcSrc)
	if _, err := Protect(m, SchemeDupVal, nil, DefaultParams()); err == nil {
		t.Fatal("DupVal without profiles accepted")
	}
}

func TestFullDupPreservesSemantics(t *testing.T) {
	orig := compile(t, crcSrc)
	prot := orig.Clone()
	stats, err := Protect(prot, SchemeFullDup, nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if stats.DupInstrs == 0 || stats.DupChecks == 0 {
		t.Fatalf("full dup did nothing: %+v", stats)
	}

	r0, o0 := runCRC(t, orig, vm.RunOptions{})
	r1, o1 := runCRC(t, prot, vm.RunOptions{})
	if r1.Trap != nil {
		t.Fatalf("trap: %v", r1.Trap)
	}
	if o0 != o1 {
		t.Fatalf("output %d != %d", o1, o0)
	}
	if r1.Dyn <= r0.Dyn {
		t.Error("full dup did not add dynamic work")
	}
}

// TestProtectionOverheadOrdering checks the paper's central cost relation:
// overhead(DupOnly) < overhead(DupVal) < overhead(FullDup).
func TestProtectionOverheadOrdering(t *testing.T) {
	orig := compile(t, crcSrc)
	prof := profileCRC(t, orig)

	cycles := func(mode string, withProf bool) int64 {
		m := orig.Clone()
		var pd *profile.Data
		if withProf {
			pd = prof
		}
		if _, err := Protect(m, mode, pd, DefaultParams()); err != nil {
			t.Fatal(err)
		}
		r, _ := runCRC(t, m, vm.RunOptions{CountChecks: true})
		if r.Trap != nil {
			t.Fatalf("%s trap: %v", mode, r.Trap)
		}
		return r.Cycles
	}

	c0 := cycles(SchemeOriginal, false)
	cDup := cycles(SchemeDup, false)
	cVal := cycles(SchemeDupVal, true)
	cFull := cycles(SchemeFullDup, false)
	// Every scheme costs something; full duplication costs the most. Note
	// DupVal may undercut DupOnly on a single kernel (the paper sees this
	// on svm): Optimization 2 swaps duplication chains for cheaper checks.
	if !(c0 < cDup && c0 < cVal && cDup < cFull && cVal < cFull) {
		t.Fatalf("overhead ordering violated: orig=%d dup=%d dup+val=%d full=%d", c0, cDup, cVal, cFull)
	}
}

// buildFig8Module reproduces paper Figure 8: a straight-line producer chain
// 1 -> 3 -> 4 -> 5 where several instructions are check-amenable; with
// Optimization 1 only the deepest (5) receives a check.
func buildFig8Module(t *testing.T) (*ir.Module, []*ir.Instr) {
	t.Helper()
	m := ir.NewModule("fig8")
	in := m.AddGlobal("in", 1)
	out := m.AddGlobal("out", 1)
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	v0 := b.Load(ir.I64, in)
	i1 := b.Bin(ir.OpAdd, v0, ir.ConstInt(1))
	i3 := b.Bin(ir.OpMul, i1, ir.ConstInt(2))
	i4 := b.Bin(ir.OpAdd, i3, ir.ConstInt(3))
	i5 := b.Bin(ir.OpXor, i4, ir.ConstInt(7))
	b.Store(out, i5)
	b.Ret(nil)
	m.Renumber()
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	return m, []*ir.Instr{i1, i3, i4, i5}
}

func TestOpt1KeepsOnlyDeepestCheck(t *testing.T) {
	_, chain := buildFig8Module(t)
	specs := map[*ir.Instr]CheckSpec{}
	for _, in := range chain {
		specs[in] = CheckSpec{Form: FormRange, Lo: 0, Hi: 100}
	}
	applyOpt1(specs, nil)
	if len(specs) != 1 {
		t.Fatalf("checks remaining = %d, want 1", len(specs))
	}
	if _, ok := specs[chain[3]]; !ok {
		t.Fatal("surviving check is not the deepest instruction")
	}
}

func TestOpt1HonorsMustCheckSet(t *testing.T) {
	_, chain := buildFig8Module(t)
	specs := map[*ir.Instr]CheckSpec{}
	for _, in := range chain {
		specs[in] = CheckSpec{Form: FormRange, Lo: 0, Hi: 100}
	}
	keep := map[*ir.Instr]bool{chain[0]: true} // Opt2 promised a check on i1
	applyOpt1(specs, keep)
	if len(specs) != 2 {
		t.Fatalf("checks remaining = %d, want 2 (deepest + kept)", len(specs))
	}
	if _, ok := specs[chain[0]]; !ok {
		t.Fatal("must-check instruction was pruned")
	}
}

// TestOpt2TerminatesDuplicationAtCheckableInstr reproduces paper Figure 9:
// a state-variable chain containing a check-amenable producer stops
// duplicating there and records the instruction in mustCheck.
func TestOpt2TerminatesDuplicationAtCheckableInstr(t *testing.T) {
	src := `
global int in[64];
global int out[1];
void main() {
	int acc = 0;
	for (int i = 0; i < 64; i += 1) {
		int x = in[i] * 3;
		int y = x + 5;
		acc = acc + y;
	}
	out[0] = acc;
}`
	m := compile(t, src)
	f := m.Func("main")
	svs := FindStateVars(f)
	if len(svs) != 2 {
		t.Fatalf("state vars = %d", len(svs))
	}

	// Find the add computing y (x + 5).
	var yInstr *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpAdd {
			if c, ok := in.Args[1].(*ir.Const); ok && c.Int() == 5 {
				yInstr = in
				return false
			}
		}
		return true
	})
	if yInstr == nil {
		t.Fatalf("y instruction not found:\n%s", f.Dump())
	}

	withOpt2 := func(enabled bool) int {
		m2 := m.Clone()
		f2 := m2.Func("main")
		var y2 *ir.Instr
		f2.Instrs(func(in *ir.Instr) bool {
			if in.UID == yInstr.UID {
				y2 = in
				return false
			}
			return true
		})
		specs := map[*ir.Instr]CheckSpec{y2: {Form: FormRange, Lo: 0, Hi: 1000}}
		svs2 := FindStateVars(f2)
		d := newDuplicator(f2, specs, enabled)
		d.mirrorStateVars(svs2, 1)
		if enabled && !d.mustCheck[y2] {
			t.Error("Opt2 did not record the terminating check")
		}
		return d.cloned
	}

	with := withOpt2(true)
	without := withOpt2(false)
	if with >= without {
		t.Fatalf("Opt2 did not reduce duplication: with=%d without=%d", with, without)
	}
}

func TestStatsFractions(t *testing.T) {
	s := &Stats{TotalInstrs: 200, StateVars: 4, DupInstrs: 20, ValueChecks: 10}
	if s.FracStateVars() != 0.02 || s.FracDuplicated() != 0.1 || s.FracValueChecks() != 0.05 {
		t.Fatalf("fractions wrong: %v %v %v", s.FracStateVars(), s.FracDuplicated(), s.FracValueChecks())
	}
}

// TestDupOnlyDetectsStateCorruption injects faults and requires that the
// protected binary converts some silent corruptions into detections.
func TestDupOnlyDetectsStateCorruption(t *testing.T) {
	orig := compile(t, crcSrc)
	prot := orig.Clone()
	if _, err := Protect(prot, SchemeDup, nil, DefaultParams()); err != nil {
		t.Fatal(err)
	}

	data, table := crcInputs(1)
	golden := func(m *ir.Module) (int64, int64) {
		mach, _ := vm.New(m, vm.DefaultConfig())
		mach.BindInputInts("data", data)
		mach.BindInputInts("crc_table", table)
		mach.Reset()
		r := mach.Run(vm.RunOptions{})
		out, _ := mach.ReadGlobalInts("out")
		return out[0], r.Dyn
	}
	goldOut, goldDyn := golden(prot)

	detected, corrupted := 0, 0
	const trials = 300
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		mach, _ := vm.New(prot, vm.DefaultConfig())
		mach.BindInputInts("data", data)
		mach.BindInputInts("crc_table", table)
		mach.Reset()
		res := mach.Run(vm.RunOptions{Hook: &regFlip{at: rng.Int63n(goldDyn), rng: rng}})
		if res.Trap != nil && res.Trap.Kind == vm.TrapCheck {
			detected++
			continue
		}
		if res.Trap == nil {
			out, _ := mach.ReadGlobalInts("out")
			if out[0] != goldOut {
				corrupted++
			}
		}
	}
	if detected == 0 {
		t.Fatal("duplication checks never detected an injected fault")
	}
	t.Logf("detected=%d silently-corrupted=%d of %d", detected, corrupted, trials)
}

// regFlip is a register-flip fault hook: at the first fault-eligible
// instruction at or past at, it flips a random bit of a random written
// register of the executing frame.
type regFlip struct {
	at   int64
	rng  *rand.Rand
	done bool
}

func (f *regFlip) Next() int64 {
	if f.done {
		return math.MaxInt64
	}
	return f.at
}

func (f *regFlip) Fire(m *vm.Machine) {
	if n := m.LiveRegCount(); n > 0 {
		i := f.rng.Intn(n)
		bits, _ := m.LiveReg(i)
		m.SetLiveReg(i, bits^1<<uint(f.rng.Intn(64)))
		f.done = true
	}
}
