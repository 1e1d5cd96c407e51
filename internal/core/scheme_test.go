package core

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/vm"
)

func nopTransform(*ir.Module, *profile.Data, Params, *Stats) error { return nil }

func TestRegistryContainsPaperSchemesInCostOrder(t *testing.T) {
	names := SchemeNames()
	want := []string{SchemeOriginal, SchemeDup, SchemeDupVal, SchemeFullDup}
	if len(names) < len(want) {
		t.Fatalf("registry has %d schemes, want at least %d", len(names), len(want))
	}
	for i, w := range want {
		if names[i] != w {
			t.Errorf("registration order[%d] = %q, want %q", i, names[i], w)
		}
	}
	for _, n := range names {
		s, ok := Lookup(n)
		if !ok {
			t.Fatalf("SchemeNames lists %q but Lookup misses it", n)
		}
		if s.Name() != n {
			t.Errorf("scheme %q reports Name %q", n, s.Name())
		}
		if s.Title() == "" {
			t.Errorf("scheme %q has no title", n)
		}
	}
}

func TestRegisterRejectsMalformedAndDuplicateNames(t *testing.T) {
	for _, bad := range []string{"", "a+b", "has space", "UPPER"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register accepted invalid name %q", bad)
				}
			}()
			Register(&scheme{name: bad, title: "x", transform: nopTransform})
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Register accepted a duplicate of an existing scheme")
			}
		}()
		Register(&scheme{name: SchemeDup, title: "x", transform: nopTransform})
	}()
}

func TestParseSchemeRoundTripAndComposition(t *testing.T) {
	for _, n := range SchemeNames() {
		s, err := ParseScheme(n)
		if err != nil {
			t.Fatalf("ParseScheme(%q): %v", n, err)
		}
		if s.Name() != n {
			t.Errorf("ParseScheme(%q).Name() = %q", n, s.Name())
		}
	}
	// Case-insensitive and whitespace-tolerant.
	if s, err := ParseScheme("  DupVal "); err != nil || s.Name() != SchemeDupVal {
		t.Errorf("ParseScheme(\"  DupVal \") = %v, %v", s, err)
	}
	// Composition round-trips and inherits the profile requirement.
	s, err := ParseScheme("abft+dupval")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "abft+dupval" {
		t.Errorf("composite name = %q", s.Name())
	}
	if !s.NeedsProfile() {
		t.Error("abft+dupval must need a profile (dupval does)")
	}
	if s2, err := ParseScheme(s.Name()); err != nil || s2.Name() != s.Name() {
		t.Errorf("composite did not round-trip: %v, %v", s2, err)
	}
	if got := Title("abft+dupval"); got != "ABFT checksums + Dup + val chks" {
		t.Errorf("composite title = %q", got)
	}
	// Unknown names fail with the available schemes listed.
	if _, err := ParseScheme("nope"); err == nil || !strings.Contains(err.Error(), SchemeDup) {
		t.Errorf("unknown scheme error should list registered names, got %v", err)
	}
	if _, err := ParseScheme("abft++dupval"); err == nil {
		t.Error("empty composition component accepted")
	}
}

// TestComposedSchemeCheckIDsUnique is the contract composition rests on:
// applying several schemes to one module must keep check IDs unique, because
// golden-run squelching and recovery key on them.
func TestComposedSchemeCheckIDsUnique(t *testing.T) {
	m := compile(t, abftSrc)
	prof := profileABFT(t, m)
	if _, err := Protect(m, "abft+dupval+fulldup", prof, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, f := range m.Funcs {
		f.Instrs(func(in *ir.Instr) bool {
			if in.Op.IsCheck() {
				if seen[in.CheckID] {
					t.Errorf("duplicate check ID %d", in.CheckID)
				}
				seen[in.CheckID] = true
			}
			return true
		})
	}
	if len(seen) == 0 {
		t.Fatal("composed scheme inserted no checks")
	}
}

// abftSrc is a matrix-accumulation kernel: an outer loop nest storing
// arithmetic results, the shape ABFT checksums target.
const abftSrc = `
global int a[64];
global int b[64];
global int out[8];
void main() {
	int i = 0;
	while (i < 8) {
		int acc = 0;
		int j = 0;
		while (j < 8) {
			acc = acc + a[i*8+j] * b[j*8+i];
			j += 1;
		}
		out[i] = acc * 3 + 1;
		i += 1;
	}
}`

func profileABFT(t testing.TB, m *ir.Module) *profile.Data {
	t.Helper()
	mach, err := vm.New(m.Clone(), vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := make([]int64, 64)
	b := make([]int64, 64)
	for i := range a {
		a[i] = int64(i*7%13 - 5)
		b[i] = int64(i*11%17 - 8)
	}
	mach.BindInputInts("a", a)
	mach.BindInputInts("b", b)
	mach.Reset()
	col := profile.NewCollector(profile.DefaultBins)
	if res := mach.Run(vm.RunOptions{Profiler: col}); res.Trap != nil {
		t.Fatalf("profiling trap: %v", res.Trap)
	}
	return col.Data()
}

func TestABFTInstrumentsKernelsAndStaysSilentFaultFree(t *testing.T) {
	orig := compile(t, abftSrc)
	_, wantOut := runABFT(t, orig.Clone())

	prot := orig.Clone()
	st, err := Protect(prot, SchemeABFT, nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if st.ABFTKernels == 0 || st.ABFTChecks == 0 {
		t.Fatalf("no kernels instrumented: %+v", st)
	}
	if st.DupInstrs == 0 {
		t.Fatal("ABFT inserted no shadow computation")
	}
	res, gotOut := runABFT(t, prot)
	if gotOut != wantOut {
		t.Fatalf("ABFT changed the output: %d != %d", gotOut, wantOut)
	}
	if res.CheckFails != 0 {
		t.Fatalf("ABFT checks fired fault-free: %d", res.CheckFails)
	}
	nChecks := 0
	for _, f := range prot.Funcs {
		f.Instrs(func(in *ir.Instr) bool {
			if in.Check == ir.CheckABFT {
				nChecks++
			}
			return true
		})
	}
	if nChecks != st.ABFTChecks {
		t.Errorf("stats report %d ABFT checks, module has %d", st.ABFTChecks, nChecks)
	}
}

func runABFT(t testing.TB, m *ir.Module) (*vm.Result, int64) {
	t.Helper()
	mach, err := vm.New(m, vm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := make([]int64, 64)
	b := make([]int64, 64)
	for i := range a {
		a[i] = int64(i*7%13 - 5)
		b[i] = int64(i*11%17 - 8)
	}
	mach.BindInputInts("a", a)
	mach.BindInputInts("b", b)
	mach.Reset()
	res := mach.Run(vm.RunOptions{CountChecks: true})
	if res.Trap != nil {
		t.Fatalf("run trapped: %v", res.Trap)
	}
	out, _ := mach.ReadGlobalInts("out")
	return res, out[0]
}
