package vm

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ir"
)

// binOpModule builds: main() { out[0] = load(in[0]) OP load(in[1]) }.
func binOpModule(t testing.TB, op ir.Op, ty ir.Type) *ir.Module {
	t.Helper()
	m := ir.NewModule("binop")
	in := m.AddGlobal("in", 2)
	out := m.AddGlobal("out", 1)
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	a0 := b.Load(ty, in)
	p1 := b.PtrAdd(in, ir.ConstInt(1))
	a1 := b.Load(ty, p1)
	r := b.Bin(op, a0, a1)
	b.Store(out, r)
	b.Ret(nil)
	m.Renumber()
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

func runBinOp(t testing.TB, op ir.Op, ty ir.Type, x, y uint64) (*Result, uint64) {
	t.Helper()
	m := binOpModule(t, op, ty)
	mach, err := New(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := mach.BindInput("in", []uint64{x, y}); err != nil {
		t.Fatal(err)
	}
	mach.Reset()
	res := mach.Run(RunOptions{})
	var outBits uint64
	if res.Trap == nil {
		out, err := mach.ReadGlobal("out")
		if err != nil {
			t.Fatal(err)
		}
		outBits = out[0]
	}
	return res, outBits
}

// TestIntOpsMatchGoSemantics fuzzes integer ops against native Go.
func TestIntOpsMatchGoSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem, ir.OpAnd,
		ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpEq, ir.OpNe, ir.OpLt,
		ir.OpLe, ir.OpGt, ir.OpGe}
	for trial := 0; trial < 300; trial++ {
		op := ops[rng.Intn(len(ops))]
		x := int64(rng.Uint64())
		y := int64(rng.Uint64())
		if rng.Intn(2) == 0 {
			y = int64(rng.Intn(200)) - 100 // exercise small operands too
		}
		var want int64
		switch op {
		case ir.OpAdd:
			want = x + y
		case ir.OpSub:
			want = x - y
		case ir.OpMul:
			want = x * y
		case ir.OpDiv:
			if y == 0 || (x == math.MinInt64 && y == -1) {
				continue
			}
			want = x / y
		case ir.OpRem:
			if y == 0 || (x == math.MinInt64 && y == -1) {
				continue
			}
			want = x % y
		case ir.OpAnd:
			want = x & y
		case ir.OpOr:
			want = x | y
		case ir.OpXor:
			want = x ^ y
		case ir.OpShl:
			want = x << uint(y&63)
		case ir.OpShr:
			want = x >> uint(y&63)
		case ir.OpEq:
			want = b2i(x == y)
		case ir.OpNe:
			want = b2i(x != y)
		case ir.OpLt:
			want = b2i(x < y)
		case ir.OpLe:
			want = b2i(x <= y)
		case ir.OpGt:
			want = b2i(x > y)
		case ir.OpGe:
			want = b2i(x >= y)
		}
		res, got := runBinOp(t, op, ir.I64, uint64(x), uint64(y))
		if res.Trap != nil {
			t.Fatalf("%s(%d, %d): unexpected trap %v", op, x, y, res.Trap)
		}
		if int64(got) != want {
			t.Fatalf("%s(%d, %d) = %d, want %d", op, x, y, int64(got), want)
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestFloatOpsMatchGoSemantics fuzzes float arithmetic against native Go.
func TestFloatOpsMatchGoSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv}
	for trial := 0; trial < 200; trial++ {
		op := ops[rng.Intn(len(ops))]
		x := rng.NormFloat64() * 1e6
		y := rng.NormFloat64() * 1e3
		var want float64
		switch op {
		case ir.OpAdd:
			want = x + y
		case ir.OpSub:
			want = x - y
		case ir.OpMul:
			want = x * y
		case ir.OpDiv:
			want = x / y
		}
		res, got := runBinOp(t, op, ir.F64, math.Float64bits(x), math.Float64bits(y))
		if res.Trap != nil {
			t.Fatalf("%s: unexpected trap %v", op, res.Trap)
		}
		if math.Float64frombits(got) != want {
			t.Fatalf("%s(%g, %g) = %g, want %g", op, x, y, math.Float64frombits(got), want)
		}
	}
}

func TestDivByZeroTraps(t *testing.T) {
	res, _ := runBinOp(t, ir.OpDiv, ir.I64, 5, 0)
	if res.Trap == nil || res.Trap.Kind != TrapDivZero {
		t.Fatalf("trap = %v, want div-by-zero", res.Trap)
	}
	if !res.Trap.IsSymptom() {
		t.Error("div-by-zero should be a hardware symptom")
	}
}

// loopModule: main() { s=0; for i in 0..n-1 { s += in[i] }; out[0]=s }.
func loopModule(t testing.TB, n int) *ir.Module {
	t.Helper()
	m := ir.NewModule("loop")
	in := m.AddGlobal("in", n)
	out := m.AddGlobal("out", 1)
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)

	entry := b.Cur
	header := b.Block("header")
	body := b.Block("body")
	exit := b.Block("exit")
	b.Jmp(header)

	b.SetBlock(header)
	i := b.Phi(ir.I64)
	s := b.Phi(ir.I64)
	cond := b.Bin(ir.OpLt, i, ir.ConstInt(int64(n)))
	b.Br(cond, body, exit)

	b.SetBlock(body)
	p := b.PtrAdd(in, i)
	v := b.Load(ir.I64, p)
	s2 := b.Bin(ir.OpAdd, s, v)
	i2 := b.Bin(ir.OpAdd, i, ir.ConstInt(1))
	b.Jmp(header)

	ir.AddIncoming(i, ir.ConstInt(0), entry)
	ir.AddIncoming(i, i2, body)
	ir.AddIncoming(s, ir.ConstInt(0), entry)
	ir.AddIncoming(s, s2, body)

	b.SetBlock(exit)
	b.Store(out, s)
	b.Ret(nil)
	m.Renumber()
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

func TestLoopSumsGlobal(t *testing.T) {
	const n = 100
	m := loopModule(t, n)
	mach, err := New(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, n)
	want := int64(0)
	for i := range data {
		data[i] = int64(i * 3)
		want += data[i]
	}
	if err := mach.BindInputInts("in", data); err != nil {
		t.Fatal(err)
	}
	mach.Reset()
	res := mach.Run(RunOptions{})
	if res.Trap != nil {
		t.Fatalf("trap: %v", res.Trap)
	}
	out, _ := mach.ReadGlobalInts("out")
	if out[0] != want {
		t.Fatalf("sum = %d, want %d", out[0], want)
	}
	if res.Dyn < int64(n) {
		t.Errorf("dyn = %d, implausibly small", res.Dyn)
	}
	if res.Cycles <= 0 {
		t.Errorf("cycles = %d", res.Cycles)
	}
}

func TestResetRestoresState(t *testing.T) {
	m := loopModule(t, 10)
	mach, err := New(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if err := mach.BindInputInts("in", data); err != nil {
		t.Fatal(err)
	}
	mach.Reset()
	r1 := mach.Run(RunOptions{})
	out1, _ := mach.ReadGlobalInts("out")
	mach.Reset()
	r2 := mach.Run(RunOptions{})
	out2, _ := mach.ReadGlobalInts("out")
	if out1[0] != out2[0] || r1.Dyn != r2.Dyn || r1.Cycles != r2.Cycles {
		t.Fatalf("run not deterministic after Reset: %v/%v dyn %d/%d cyc %d/%d",
			out1[0], out2[0], r1.Dyn, r2.Dyn, r1.Cycles, r2.Cycles)
	}
}

func TestOOBStoreTraps(t *testing.T) {
	m := ir.NewModule("oob")
	m.AddGlobal("out", 1)
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	p := b.PtrAdd(m.Global("out"), ir.ConstInt(1<<40))
	b.Store(p, ir.ConstInt(1))
	b.Ret(nil)
	m.Renumber()
	mach, err := New(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := mach.Run(RunOptions{})
	if res.Trap == nil || res.Trap.Kind != TrapOOB {
		t.Fatalf("trap = %v, want OOB", res.Trap)
	}
}

func TestNullAccessTraps(t *testing.T) {
	m := ir.NewModule("null")
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	g := m.AddGlobal("g", 1)
	p := b.PtrAdd(g, ir.ConstInt(-1)) // address 0 is the null guard
	b.Load(ir.I64, p)
	b.Ret(nil)
	m.Renumber()
	mach, err := New(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := mach.Run(RunOptions{})
	if res.Trap == nil || res.Trap.Kind != TrapOOB {
		t.Fatalf("trap = %v, want OOB for address 0", res.Trap)
	}
}

func TestWatchdogCatchesInfiniteLoop(t *testing.T) {
	m := ir.NewModule("spin")
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	loop := b.Block("loop")
	b.Jmp(loop)
	b.SetBlock(loop)
	b.Jmp(loop)
	m.Renumber()
	cfg := DefaultConfig()
	cfg.MaxDyn = 10_000
	mach, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := mach.Run(RunOptions{})
	if res.Trap == nil || res.Trap.Kind != TrapWatchdog {
		t.Fatalf("trap = %v, want watchdog", res.Trap)
	}
}

func TestCallAndRecursion(t *testing.T) {
	// fib(n) recursive; main stores fib(12) = 144.
	m := ir.NewModule("fib")
	out := m.AddGlobal("out", 1)
	n := &ir.Param{Name: "n", Ty: ir.I64}
	fib := m.NewFunc("fib", ir.I64, n)
	b := ir.NewBuilder(fib)
	base := b.Block("base")
	rec := b.Block("rec")
	cond := b.Bin(ir.OpLt, n, ir.ConstInt(2))
	b.Br(cond, base, rec)
	b.SetBlock(base)
	b.Ret(n)
	b.SetBlock(rec)
	n1 := b.Bin(ir.OpSub, n, ir.ConstInt(1))
	n2 := b.Bin(ir.OpSub, n, ir.ConstInt(2))
	f1 := b.Call(fib, n1)
	f2 := b.Call(fib, n2)
	sum := b.Bin(ir.OpAdd, f1, f2)
	b.Ret(sum)

	mainFn := m.NewFunc("main", ir.Void)
	mb := ir.NewBuilder(mainFn)
	r := mb.Call(fib, ir.ConstInt(12))
	mb.Store(out, r)
	mb.Ret(nil)
	m.Renumber()
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	mach, err := New(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := mach.Run(RunOptions{})
	if res.Trap != nil {
		t.Fatalf("trap: %v", res.Trap)
	}
	got, _ := mach.ReadGlobalInts("out")
	if got[0] != 144 {
		t.Fatalf("fib(12) = %d, want 144", got[0])
	}
}

func TestStackOverflowTraps(t *testing.T) {
	// f(n) = f(n+1): infinite recursion.
	m := ir.NewModule("deep")
	n := &ir.Param{Name: "n", Ty: ir.I64}
	f := m.NewFunc("f", ir.I64, n)
	b := ir.NewBuilder(f)
	n1 := b.Bin(ir.OpAdd, n, ir.ConstInt(1))
	r := b.Call(f, n1)
	b.Ret(r)
	mainFn := m.NewFunc("main", ir.Void)
	mb := ir.NewBuilder(mainFn)
	mb.Call(f, ir.ConstInt(0))
	mb.Ret(nil)
	m.Renumber()
	mach, err := New(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := mach.Run(RunOptions{})
	if res.Trap == nil || res.Trap.Kind != TrapStackOverflow {
		t.Fatalf("trap = %v, want stack overflow", res.Trap)
	}
}

// checkModule builds main(){ v = load in[0]; rangecheck v in [10,20]; out[0]=v }.
func checkModule(t testing.TB) *ir.Module {
	t.Helper()
	m := ir.NewModule("chk")
	in := m.AddGlobal("in", 1)
	out := m.AddGlobal("out", 1)
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	v := b.Load(ir.I64, in)
	chk := b.Emit(&ir.Instr{
		Op: ir.OpRangeCheck, Ty: ir.Void,
		Args:  []ir.Value{v, ir.ConstInt(10), ir.ConstInt(20)},
		Check: ir.CheckValue, CheckID: 7,
	})
	_ = chk
	b.Store(out, v)
	b.Ret(nil)
	m.Renumber()
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRangeCheckPassesInside(t *testing.T) {
	m := checkModule(t)
	mach, _ := New(m, DefaultConfig())
	mach.BindInputInts("in", []int64{15})
	mach.Reset()
	res := mach.Run(RunOptions{})
	if res.Trap != nil {
		t.Fatalf("in-range value trapped: %v", res.Trap)
	}
}

func TestRangeCheckTrapsOutside(t *testing.T) {
	m := checkModule(t)
	mach, _ := New(m, DefaultConfig())
	mach.BindInputInts("in", []int64{-5})
	mach.Reset()
	res := mach.Run(RunOptions{})
	if res.Trap == nil || res.Trap.Kind != TrapCheck {
		t.Fatalf("trap = %v, want check", res.Trap)
	}
	if res.Trap.CheckID != 7 || res.Trap.CheckKind != ir.CheckValue {
		t.Errorf("check metadata = %d/%s", res.Trap.CheckID, res.Trap.CheckKind)
	}
}

func TestCountChecksMode(t *testing.T) {
	m := checkModule(t)
	mach, _ := New(m, DefaultConfig())
	mach.BindInputInts("in", []int64{1000})
	mach.Reset()
	res := mach.Run(RunOptions{CountChecks: true})
	if res.Trap != nil {
		t.Fatalf("counting mode trapped: %v", res.Trap)
	}
	if res.CheckFails != 1 || res.PerCheckFails[7] != 1 {
		t.Fatalf("check fails = %d (%v), want 1", res.CheckFails, res.PerCheckFails)
	}
	out, _ := mach.ReadGlobalInts("out")
	if out[0] != 1000 {
		t.Fatal("counting mode did not continue execution")
	}
}

func TestCmpCheckSemantics(t *testing.T) {
	m := ir.NewModule("cmp")
	in := m.AddGlobal("in", 2)
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	a := b.Load(ir.I64, in)
	p := b.PtrAdd(in, ir.ConstInt(1))
	c := b.Load(ir.I64, p)
	b.Emit(&ir.Instr{Op: ir.OpCmpCheck, Args: []ir.Value{a, c}, Check: ir.CheckDup, CheckID: 1})
	b.Ret(nil)
	m.Renumber()
	mach, _ := New(m, DefaultConfig())

	mach.BindInputInts("in", []int64{42, 42})
	mach.Reset()
	if res := mach.Run(RunOptions{}); res.Trap != nil {
		t.Fatalf("equal values trapped: %v", res.Trap)
	}
	mach.BindInputInts("in", []int64{42, 43})
	mach.Reset()
	res := mach.Run(RunOptions{})
	if res.Trap == nil || res.Trap.Kind != TrapCheck || res.Trap.CheckKind != ir.CheckDup {
		t.Fatalf("trap = %v, want dup check", res.Trap)
	}
}

func TestFaultInjectionIsDeterministic(t *testing.T) {
	m := loopModule(t, 50)
	data := make([]int64, 50)
	for i := range data {
		data[i] = int64(i)
	}
	run := func() (*Result, int64) {
		mach, _ := New(m, DefaultConfig())
		mach.BindInputInts("in", data)
		mach.Reset()
		rng := rand.New(rand.NewSource(99))
		flip := &RegFlip{At: 120, Slot: rng.Intn, Bit: func() int { return rng.Intn(64) }}
		res := mach.Run(RunOptions{Hook: flip})
		out, _ := mach.ReadGlobalInts("out")
		if !flip.Injected {
			t.Fatal("fault not injected")
		}
		return res, out[0]
	}
	r1, o1 := run()
	r2, o2 := run()
	if o1 != o2 || r1.Dyn != r2.Dyn {
		t.Fatalf("injection not deterministic: out %d/%d dyn %d/%d", o1, o2, r1.Dyn, r2.Dyn)
	}
}

func TestFaultInjectionRecordsMetadata(t *testing.T) {
	m := loopModule(t, 50)
	data := make([]int64, 50)
	for i := range data {
		data[i] = 1000
	}
	mach, _ := New(m, DefaultConfig())
	mach.BindInputInts("in", data)
	mach.Reset()
	rng := rand.New(rand.NewSource(5))
	flip := &RegFlip{At: 60, Slot: rng.Intn, Bit: func() int { return 3 }}
	mach.Run(RunOptions{Hook: flip})
	if !flip.Injected {
		t.Fatal("not injected")
	}
	if flip.Old^flip.New != 1<<3 {
		t.Errorf("flip mask = %x", flip.Old^flip.New)
	}
	if flip.RelChange < 0 {
		t.Errorf("rel change = %v", flip.RelChange)
	}
}

func TestTimingChargesMoreForProtectedCode(t *testing.T) {
	// Same loop, one with a redundant add chain: must cost more cycles.
	base := loopModule(t, 200)
	prot := loopModule(t, 200)
	// Append a duplicate add + check into the protected body.
	f := prot.Func("main")
	body := f.Blocks[2]
	s2 := body.Instrs[2] // add s, v
	dup := &ir.Instr{Op: ir.OpAdd, Ty: ir.I64, Args: append([]ir.Value{}, s2.Args...), UID: prot.NewUID()}
	body.InsertAfterInstr(dup, s2)
	chk := &ir.Instr{Op: ir.OpCmpCheck, Args: []ir.Value{s2, dup}, Check: ir.CheckDup, UID: prot.NewUID()}
	body.InsertAfterInstr(chk, dup)
	prot.Renumber()
	if err := prot.Verify(); err != nil {
		t.Fatal(err)
	}

	data := make([]int64, 200)
	for i := range data {
		data[i] = int64(i)
	}
	cycles := func(m *ir.Module) int64 {
		mach, _ := New(m, DefaultConfig())
		mach.BindInputInts("in", data)
		mach.Reset()
		res := mach.Run(RunOptions{})
		if res.Trap != nil {
			t.Fatalf("trap: %v", res.Trap)
		}
		return res.Cycles
	}
	c0, c1 := cycles(base), cycles(prot)
	if c1 <= c0 {
		t.Fatalf("protected cycles %d <= baseline %d", c1, c0)
	}
	// Dual issue should absorb part of the redundancy: the relative
	// overhead must be below the sequential worst case of 2 extra
	// instructions per 5-instruction body.
	if float64(c1) > float64(c0)*1.9 {
		t.Errorf("overhead implausibly high: %d vs %d", c1, c0)
	}
}

type recordingProfiler struct {
	n     int
	byUID map[int]int
}

func (p *recordingProfiler) Record(in *ir.Instr, bits uint64) {
	p.n++
	if p.byUID == nil {
		p.byUID = map[int]int{}
	}
	p.byUID[in.UID]++
}

func TestProfilerHookSeesValues(t *testing.T) {
	m := loopModule(t, 30)
	mach, _ := New(m, DefaultConfig())
	data := make([]int64, 30)
	mach.BindInputInts("in", data)
	mach.Reset()
	p := &recordingProfiler{}
	mach.Run(RunOptions{Profiler: p})
	if p.n == 0 {
		t.Fatal("profiler saw nothing")
	}
	// The load executes 30 times; find a UID with exactly 30 records.
	found := false
	for _, c := range p.byUID {
		if c == 30 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no instruction recorded 30 times: %v", p.byUID)
	}
}

func TestTracerReceivesEvents(t *testing.T) {
	m := loopModule(t, 5)
	mach, _ := New(m, DefaultConfig())
	mach.BindInputInts("in", []int64{1, 2, 3, 4, 5})
	mach.Reset()
	var buf bytes.Buffer
	tr := &WriterTracer{W: &buf, Limit: 50}
	res := mach.Run(RunOptions{Tracer: tr})
	if res.Trap != nil {
		t.Fatal(res.Trap)
	}
	if tr.Events() != 50 {
		t.Fatalf("events = %d, want 50 (limit)", tr.Events())
	}
	out := buf.String()
	for _, want := range []string{"main", "phi", "load", "add"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out[:200])
		}
	}
}
