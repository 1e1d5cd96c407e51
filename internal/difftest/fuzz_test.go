package difftest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/passes"
	"repro/internal/profile"
	"repro/internal/vm"
)

// fuzzModule is every target's preamble: it parses src, bounds its global
// sizes (fuzzed sources may declare huge globals; the pipeline's
// correctness is independent of size), generates code, and verifies and
// normalizes the module. It returns a nil module for a source outside the
// targets' scope. A verifier failure fails t when strict is set — the
// targets that own the verifier invariant — and skips the source
// otherwise.
func fuzzModule(t *testing.T, src string, strict bool) (*lang.Program, *ir.Module) {
	t.Helper()
	if len(src) > 4096 {
		return nil, nil
	}
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, nil
	}
	total := 0
	for _, g := range prog.Globals {
		if g.Size < 0 || g.Size > 1<<12 {
			return nil, nil
		}
		total += g.Size
	}
	if total > 1<<14 {
		return nil, nil
	}
	mod, err := lang.Codegen("fuzz", prog)
	if err != nil {
		return nil, nil
	}
	mod.Renumber()
	if err := mod.Verify(); err != nil {
		if strict {
			t.Fatalf("verifier unclean after codegen: %v\n%s", err, src)
		}
		return nil, nil
	}
	if err := passes.Normalize(mod); err != nil {
		if strict {
			t.Fatalf("verifier unclean after normalize: %v\n%s", err, src)
		}
		return nil, nil
	}
	return prog, mod
}

// FuzzCompileAndRun pushes arbitrary source through the whole pipeline:
// parse, codegen, verify, normalize, verify again, protect with DupOnly,
// then execute both versions under a tight dynamic-instruction budget.
// Nothing past the parser may panic, the verifier must stay clean after
// every transform, and when both the original and the protected program
// finish fault-free their outputs must agree (duplication is semantically
// transparent).
func FuzzCompileAndRun(f *testing.F) {
	f.Add("global int in[8]; global int out[8];\nvoid main() { out[0] = in[0] + 1; }")
	f.Add("global int out[4];\nvoid main() { for (int i = 0; i < 9; i += 1) { out[i & 3] += i; } }")
	f.Add("global float fout[4];\nvoid main() { fout[0] = (1.5 * 2.0); }")
	f.Add(Generate(1, DefaultGenConfig()).Source())
	f.Add(Generate(3, DefaultGenConfig()).Source())
	f.Add(Generate(9, DefaultGenConfig()).Source())
	f.Fuzz(func(t *testing.T, src string) {
		prog, mod := fuzzModule(t, src, true)
		if mod == nil {
			return
		}

		cfg := vm.DefaultConfig()
		cfg.MaxDyn = 200_000
		m1, err := vm.New(mod, cfg)
		if err != nil {
			return // e.g. no main — fine
		}
		m1.Reset()
		r1 := m1.Run(vm.RunOptions{})

		prot := mod.Clone()
		if _, err := core.Protect(prot, core.SchemeDup, nil, core.DefaultParams()); err != nil {
			t.Fatalf("protect failed on verified module: %v\n%s", err, src)
		}
		prot.Renumber()
		if err := prot.Verify(); err != nil {
			t.Fatalf("verifier unclean after protect: %v\n%s", err, src)
		}
		cfg.MaxDyn = 600_000 // duplication inflates the dynamic count
		m2, err := vm.New(prot, cfg)
		if err != nil {
			t.Fatalf("vm.New on protected module: %v\n%s", err, src)
		}
		m2.Reset()
		r2 := m2.Run(vm.RunOptions{})

		if r1.Trap == nil && r2.Trap == nil {
			for _, g := range prog.Globals {
				a, err1 := m1.ReadGlobal(g.Name)
				b, err2 := m2.ReadGlobal(g.Name)
				if err1 != nil || err2 != nil {
					continue
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("DupOnly changed %s[%d]: %#x != %#x\n%s",
							g.Name, i, a[i], b[i], src)
					}
				}
			}
		}
	})
}

// FuzzCheckpointDivergence hammers trial positioning with arbitrary
// programs: one forward-only cursor suspends at every edge point — dyn 1,
// the midpoint, and the last suspendable instruction of the run — and a
// Restore of its snapshot and a RestoreFrom clone of it must each finish
// bit-identically to a solo run, as must two dirty machines Reset to the
// origin and the cursor resumed in place (diffCheckpoint). Trapping programs
// are first-class inputs: a machine positioned before the trapping
// instruction must re-trap with the identical Trap record, which exercises
// suspend-before-execute ordering against division traps, watchdog
// exhaustion, and stack-depth traps.
func FuzzCheckpointDivergence(f *testing.F) {
	// A minimal body: the last suspendable point is the final ret, so the
	// edge points collapse onto a two-instruction run.
	f.Add("global int out[2];\nvoid main() { out[0] = 1; }")
	// Divergence inside a trapping region: the reference run dies on the
	// divide, and every point before it must reproduce that trap.
	f.Add("global int in[4]; global int out[4];\nvoid main() { int d = in[0] - in[0]; out[0] = 7 / d; }")
	// Divergence on the last instruction of a long straight-line bin.
	f.Add("global int in[8]; global int out[8];\nvoid main() { int s = 0; for (int i = 0; i < 40; i += 1) { s += in[i & 7] + i; } out[0] = s; }")
	// Call-heavy shape: positioning must rebuild a multi-frame suspension chain.
	f.Add("global int in[4]; global int out[4];\nint add(int a, int b) { return a + b; }\nvoid main() { int s = 0; for (int i = 0; i < 12; i += 1) { s = add(s, in[i & 3]); } out[0] = s; }")
	f.Add(Generate(2, DefaultGenConfig()).Source())
	f.Add(Generate(5, DefaultGenConfig()).Source())
	f.Add(Generate(11, DefaultGenConfig()).Source())
	f.Fuzz(func(t *testing.T, src string) {
		_, mod := fuzzModule(t, src, false) // FuzzCompileAndRun owns the verifier invariant
		if mod == nil {
			return
		}
		ints, floats := InputsForSeed(7)
		if d := diffCheckpoint(mod, ints, floats, 200_000); d != "" {
			t.Fatalf("checkpoint divergence: %s\n%s", d, src)
		}
	})
}

// FuzzFusionDivergence hammers the fused dispatch path with arbitrary
// programs: the fast engine with superinstruction fusion must be
// bit-identical to the forced per-instruction path — completed runs, runs
// suspended inside fused spans (diffFuse cuts land mid-span), and trapping
// runs, where both paths must die on the same instruction with the same
// trap record. Each program is checked unprotected and under FullDup, whose
// duplicated producers and CmpCheck signatures exercise the
// shadow-computation patterns (add+add, cmpcheck+jmp) that plain source
// cannot express.
func FuzzFusionDivergence(f *testing.F) {
	// Seeds declare the oracle's 64-word in/fin arrays: diffFuse binds both
	// unconditionally, and smaller (or missing) globals skip the cell.
	const hdr = "global int in[64]; global float fin[64]; global int out[64]; global float fout[64];\n"
	// Straight-line arithmetic chains: back-to-back add/mul spans.
	f.Add(hdr + "void main() { out[0] = in[0] * 3 + in[1] * 5 + in[2] + 7; }")
	// Array-indexing loop: mul+add address chains, add+load, the cmp+br
	// latch and the add+jmp(+phi) back edge.
	f.Add(hdr + "void main() { int s = 0; for (int i = 0; i < 24; i += 1) { s += in[i & 7] * i; out[i & 7] = s; } }")
	// Float kernel: addf/mulf pairs.
	f.Add(hdr + "void main() { float a = 0.0; for (int i = 0; i < 12; i += 1) { a = a * 1.5 + fin[i & 7]; } fout[0] = a; }")
	// Trap inside a fused span's tail: the divide sits right after fusable
	// loads, so the fused and unfused paths must agree on the trap point.
	f.Add(hdr + "void main() { int d = in[0] - in[0]; out[0] = (in[1] + 1) / d; }")
	// Watchdog exhaustion: MaxDyn lands inside a fused add+jmp span of the
	// spin loop, forcing the threshold fallback at the boundary.
	f.Add(hdr + "void main() { int s = 0; for (int i = 0; i != -1; i += 1) { s += i; } out[0] = s; }")
	f.Add(Generate(6, DefaultGenConfig()).Source())
	f.Add(Generate(12, DefaultGenConfig()).Source())
	f.Fuzz(func(t *testing.T, src string) {
		_, mod := fuzzModule(t, src, false) // FuzzCompileAndRun owns the verifier invariant
		if mod == nil {
			return
		}
		fdup := mod.Clone()
		if _, err := core.Protect(fdup, core.SchemeFullDup, nil, core.DefaultParams()); err != nil {
			return // FuzzSchemeEnumeration owns protection failures
		}
		ints, floats := InputsForSeed(7)
		for _, m := range []*ir.Module{mod, fdup} {
			ref := runModule(m, ints, floats, 200_000, vm.EngineFast, vm.RunOptions{})
			unfused := runModule(m, ints, floats, 200_000, vm.EngineFast, vm.RunOptions{Fuse: vm.FuseOff})
			if ref.trap != nil || unfused.trap != nil {
				ft, fok := ref.trap.(*vm.Trap)
				ut, uok := unfused.trap.(*vm.Trap)
				if fok != uok || (fok && *ft != *ut) {
					t.Fatalf("fusion trap divergence: fused=%v unfused=%v\n%s", ref.trap, unfused.trap, src)
				}
				// Both trapped identically, or both failed to bind the
				// oracle inputs (undersized globals) — nothing to compare.
				continue
			}
			if d := diffFuse(m, ints, floats, 200_000, ref); d != "" {
				t.Fatalf("fusion divergence: %s\n%s", d, src)
			}
		}
	})
}

// FuzzSchemeEnumeration pushes arbitrary source through every registered
// protection scheme plus a composition. For each scheme: the verifier must
// stay clean, the protected program must reproduce the unprotected outputs
// when both runs finish fault-free, and — with the oracle's full-coverage
// parameters and the profile taken on the same input — no check may fire.
// A scheme added to the registry is fuzzed here with no harness changes.
func FuzzSchemeEnumeration(f *testing.F) {
	f.Add("global int in[8]; global int out[8];\nvoid main() { out[0] = in[0] * 2 + 1; }")
	f.Add("global int in[8]; global int out[4];\nvoid main() { int s = 0; for (int i = 0; i < 16; i += 1) { s += in[i & 7] * i; } out[0] = s; }")
	f.Add(Generate(4, DefaultGenConfig()).Source())
	f.Add(Generate(8, DefaultGenConfig()).Source())
	schemes := append(core.SchemeNames(), "abft+dupval")
	f.Fuzz(func(t *testing.T, src string) {
		prog, mod := fuzzModule(t, src, true)
		if mod == nil {
			return
		}

		cfg := vm.DefaultConfig()
		cfg.MaxDyn = 200_000
		ref, err := vm.New(mod, cfg)
		if err != nil {
			return // e.g. no main — fine
		}
		ref.Reset()
		r0 := ref.Run(vm.RunOptions{})
		if r0.Trap != nil {
			return // trapping programs are FuzzCompileAndRun's territory
		}

		// Full-coverage profile on the (only) input makes "no check fires"
		// a theorem for every scheme, composed or not.
		profMach, err := vm.New(mod.Clone(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		profMach.Reset()
		col := profile.NewCollector(profile.DefaultBins)
		if res := profMach.Run(vm.RunOptions{Profiler: col}); res.Trap != nil {
			t.Fatalf("profiling run trapped where plain run completed: %v", res.Trap)
		}
		prof := col.Data()
		params := core.DefaultParams()
		params.MinRangeCoverage = 1.0
		params.MinValueCoverage = 1.0
		params.Opt2 = false

		for _, sch := range schemes {
			prot := mod.Clone()
			if _, err := core.Protect(prot, sch, prof, params); err != nil {
				t.Fatalf("scheme %s failed on verified module: %v\n%s", sch, err, src)
			}
			if err := prot.Verify(); err != nil {
				t.Fatalf("verifier unclean after %s: %v\n%s", sch, err, src)
			}
			pcfg := cfg
			pcfg.MaxDyn = 1_000_000 // duplication and checksums inflate dyn
			m2, err := vm.New(prot, pcfg)
			if err != nil {
				t.Fatalf("vm.New after %s: %v\n%s", sch, err, src)
			}
			m2.Reset()
			r2 := m2.Run(vm.RunOptions{CountChecks: true})
			if r2.Trap != nil {
				t.Fatalf("%s-protected run trapped where original completed: %v\n%s", sch, r2.Trap, src)
			}
			if r2.CheckFails != 0 {
				t.Fatalf("%s: %d checks fired fault-free on the profiled input\n%s", sch, r2.CheckFails, src)
			}
			for _, g := range prog.Globals {
				a, err1 := ref.ReadGlobal(g.Name)
				b, err2 := m2.ReadGlobal(g.Name)
				if err1 != nil || err2 != nil {
					continue
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s changed %s[%d]: %#x != %#x\n%s",
							sch, g.Name, i, a[i], b[i], src)
					}
				}
			}
		}
	})
}

// FuzzFaultModelDivergence hammers the fault-model registry with arbitrary
// programs: every registered model's campaign — including the memory/burst
// models and the re-arming stuck-at pair — must produce bit-identical
// Reports across the scratch, checkpointed, unfused and tree-interpreter
// paths. This is the model-diff oracle invariant on adversarial inputs:
// fault hooks that fire differently in either engine or across a
// suspension, re-arm schedules that interact with checkpoint binning, and
// trigger draws landing on edge instructions all surface here as
// cross-path diffs.
func FuzzFaultModelDivergence(f *testing.F) {
	// A minimal body: triggers collapse onto the first instructions, so a
	// hook due at dyn 0 fires at main's first instruction on every path.
	f.Add("global int out[2];\nvoid main() { out[0] = 1; out[1] = 2; }")
	// Memory-heavy loop: the mem-flip/stuck-at address space is live and
	// repeatedly overwritten, exercising re-arm re-forcing.
	f.Add("global int in[8]; global int out[8];\nvoid main() { for (int i = 0; i < 30; i += 1) { out[i & 7] = out[(i + 1) & 7] + in[i & 7]; } }")
	// Float kernel: burst corruption of float registers takes the F64
	// rel-change attribution path.
	f.Add("global float fin[8]; global int out[2]; global float fout[8];\nvoid main() { float a = 0.0; for (int i = 0; i < 16; i += 1) { a = a * 0.5 + fin[i & 7]; } fout[0] = a; out[0] = 1; }")
	f.Add(Generate(3, DefaultGenConfig()).Source())
	f.Add(Generate(9, DefaultGenConfig()).Source())
	f.Fuzz(func(t *testing.T, src string) {
		_, mod := fuzzModule(t, src, false) // FuzzCompileAndRun owns the verifier invariant
		if mod == nil {
			return
		}
		ints, floats := InputsForSeed(7)
		// Campaigns need a fault-free golden run with room for triggers to
		// spread; trapping and trivial programs are other targets' territory.
		mach, err := newMachine(mod, ints, floats, 200_000)
		if err != nil {
			return
		}
		res := mach.Run(vm.RunOptions{})
		if res.Trap != nil || res.Dyn < 4 {
			return
		}
		if d := diffFaultModels("fuzz", mod, ints, floats, nil); d != "" {
			t.Fatalf("fault-model divergence: %s\n%s", d, src)
		}
	})
}
