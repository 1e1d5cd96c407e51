package softft

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablation benches for the design choices listed
// in DESIGN.md. Each iteration regenerates the corresponding result at a
// reduced trial count (use cmd/experiments for full-scale campaigns);
// benchmark metrics report the reproduced quantities alongside wall time.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/profile"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// benchCfg returns a small, deterministic campaign config; seed varies per
// iteration so the campaign cache cannot short-circuit the work.
func benchCfg(trials int, seed int64) fault.Config {
	cfg := fault.DefaultConfig()
	cfg.Trials = trials
	cfg.Seed = seed
	return cfg
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.TableI(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.TableII(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(benchCfg(120, int64(i)+100)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	var asdcShare float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig2(benchCfg(60, int64(i)+200))
		if err != nil {
			b.Fatal(err)
		}
		var s []float64
		for _, r := range rows {
			s = append(s, r.ASDCShare)
		}
		asdcShare = experiments.Mean(s)
	}
	b.ReportMetric(100*asdcShare, "asdc_share_%")
}

func BenchmarkFig10(b *testing.B) {
	var dup, chk float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		var d, c []float64
		for _, r := range rows {
			d = append(d, r.Duplicated)
			c = append(c, r.ValueChecks)
		}
		dup, chk = experiments.Mean(d), experiments.Mean(c)
	}
	b.ReportMetric(100*dup, "dup_static_%")
	b.ReportMetric(100*chk, "valchk_static_%")
}

func BenchmarkFig11(b *testing.B) {
	var usdcOrig, usdcVal float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig11(benchCfg(60, int64(i)+300))
		if err != nil {
			b.Fatal(err)
		}
		var o, v []float64
		for _, r := range rows {
			switch r.Mode {
			case core.SchemeOriginal:
				o = append(o, r.Tally.Frac(fault.USDC))
			case core.SchemeDupVal:
				v = append(v, r.Tally.Frac(fault.USDC))
			}
		}
		usdcOrig, usdcVal = experiments.Mean(o), experiments.Mean(v)
	}
	b.ReportMetric(100*usdcOrig, "usdc_orig_%")
	b.ReportMetric(100*usdcVal, "usdc_dupval_%")
}

func BenchmarkFig12(b *testing.B) {
	var dup, val, full float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		var d, v, f []float64
		for _, r := range rows {
			d = append(d, r.DupOnly)
			v = append(v, r.DupVal)
			f = append(f, r.FullDup)
		}
		dup, val, full = experiments.Mean(d), experiments.Mean(v), experiments.Mean(f)
	}
	b.ReportMetric(100*dup, "dup_overhead_%")
	b.ReportMetric(100*val, "dupval_overhead_%")
	b.ReportMetric(100*full, "fulldup_overhead_%")
}

func BenchmarkFig13(b *testing.B) {
	var sdcOrig, sdcVal float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig13(benchCfg(60, int64(i)+400))
		if err != nil {
			b.Fatal(err)
		}
		var o, v []float64
		for _, r := range rows {
			switch r.Mode {
			case core.SchemeOriginal:
				o = append(o, r.SDC)
			case core.SchemeDupVal:
				v = append(v, r.SDC)
			}
		}
		sdcOrig, sdcVal = experiments.Mean(o), experiments.Mean(v)
	}
	b.ReportMetric(100*sdcOrig, "sdc_orig_%")
	b.ReportMetric(100*sdcVal, "sdc_dupval_%")
}

func BenchmarkCrossValidation(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.CrossValidation(benchCfg(80, int64(i)+500))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.MaxOutcomeDelta > delta {
				delta = r.MaxOutcomeDelta
			}
		}
	}
	b.ReportMetric(100*delta, "max_outcome_delta_%")
}

func BenchmarkFalsePositives(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.FalsePositivesAll()
		if err != nil {
			b.Fatal(err)
		}
		var dyn, fails int64
		for _, r := range rows {
			dyn += r.Dyn
			fails += r.Fails
		}
		if fails > 0 {
			rate = float64(dyn) / float64(fails)
		}
	}
	b.ReportMetric(rate, "instrs_per_false_positive")
}

func BenchmarkBranchFaultsCFC(b *testing.B) {
	var usdcPlain, usdcCFC float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.BranchFaults(benchCfg(60, int64(i)+600))
		if err != nil {
			b.Fatal(err)
		}
		var p, c []float64
		for _, r := range rows {
			switch r.Config {
			case "Original":
				p = append(p, r.Tally.Frac(fault.USDC))
			case "Dup + val chks + CFC":
				c = append(c, r.Tally.Frac(fault.USDC))
			}
		}
		usdcPlain, usdcCFC = experiments.Mean(p), experiments.Mean(c)
	}
	b.ReportMetric(100*usdcPlain, "usdc_plain_%")
	b.ReportMetric(100*usdcCFC, "usdc_cfc_%")
}

func BenchmarkMultiInputProfiling(b *testing.B) {
	var single, multi int64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.MultiInputProfiling()
		if err != nil {
			b.Fatal(err)
		}
		single, multi = 0, 0
		for _, r := range rows {
			single += r.FailsSingle
			multi += r.FailsMulti
		}
	}
	b.ReportMetric(float64(single), "falsepos_1input")
	b.ReportMetric(float64(multi), "falsepos_2inputs")
}

// ---- ablations -----------------------------------------------------------

// protectAll protects every benchmark with the given params and returns
// aggregate stats.
func protectAll(b *testing.B, mode string, params core.Params) core.Stats {
	b.Helper()
	var agg core.Stats
	for _, w := range workloads.All() {
		mod, err := w.Compile()
		if err != nil {
			b.Fatal(err)
		}
		var prof *profile.Data
		if mode == core.SchemeDupVal {
			mach, err := vm.New(mod.Clone(), vm.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if err := w.Bind(mach, workloads.Train); err != nil {
				b.Fatal(err)
			}
			mach.Reset()
			col := profile.NewCollector(profile.DefaultBins)
			if res := mach.Run(vm.RunOptions{Profiler: col}); res.Trap != nil {
				b.Fatal(res.Trap)
			}
			prof = col.Data()
		}
		m := mod.Clone()
		st, err := core.Protect(m, mode, prof, params)
		if err != nil {
			b.Fatal(err)
		}
		agg.StateVars += st.StateVars
		agg.DupInstrs += st.DupInstrs
		agg.ValueChecks += st.ValueChecks
		agg.TotalInstrs += st.TotalInstrs
	}
	return agg
}

// BenchmarkAblationOpt1 measures how many value checks Optimization 1
// removes (checks pushed deepest in producer chains).
func BenchmarkAblationOpt1(b *testing.B) {
	var with, without int
	for i := 0; i < b.N; i++ {
		p := core.DefaultParams()
		p.Opt1 = true
		with = protectAll(b, core.SchemeDupVal, p).ValueChecks
		p.Opt1 = false
		without = protectAll(b, core.SchemeDupVal, p).ValueChecks
	}
	if with > without {
		b.Fatalf("Opt1 increased checks: %d > %d", with, without)
	}
	b.ReportMetric(float64(with), "checks_with_opt1")
	b.ReportMetric(float64(without), "checks_without_opt1")
}

// BenchmarkAblationOpt2 measures how much duplication Optimization 2 saves
// (duplication terminated at check-amenable producers).
func BenchmarkAblationOpt2(b *testing.B) {
	var with, without int
	for i := 0; i < b.N; i++ {
		p := core.DefaultParams()
		p.Opt2 = true
		with = protectAll(b, core.SchemeDupVal, p).DupInstrs
		p.Opt2 = false
		without = protectAll(b, core.SchemeDupVal, p).DupInstrs
	}
	if with > without {
		b.Fatalf("Opt2 increased duplication: %d > %d", with, without)
	}
	b.ReportMetric(float64(with), "dup_with_opt2")
	b.ReportMetric(float64(without), "dup_without_opt2")
}

// BenchmarkAblationDupLoads compares the paper's stop-at-loads policy
// against duplicating through loads.
func BenchmarkAblationDupLoads(b *testing.B) {
	var stop, through int
	for i := 0; i < b.N; i++ {
		p := core.DefaultParams()
		stop = protectAll(b, core.SchemeDup, p).DupInstrs
		p.DupThroughLoads = true
		through = protectAll(b, core.SchemeDup, p).DupInstrs
	}
	if through < stop {
		b.Fatalf("duplicating through loads cloned less: %d < %d", through, stop)
	}
	b.ReportMetric(float64(stop), "dup_stop_at_loads")
	b.ReportMetric(float64(through), "dup_through_loads")
}

// BenchmarkAblationBins sweeps the histogram bin bound B (paper uses 5).
func BenchmarkAblationBins(b *testing.B) {
	w := workloads.ByName("jpegdec")
	mod, err := w.Compile()
	if err != nil {
		b.Fatal(err)
	}
	counts := map[int]int{}
	for i := 0; i < b.N; i++ {
		for _, bins := range []int{2, 5, 8} {
			mach, err := vm.New(mod.Clone(), vm.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if err := w.Bind(mach, workloads.Train); err != nil {
				b.Fatal(err)
			}
			mach.Reset()
			col := profile.NewCollector(bins)
			if res := mach.Run(vm.RunOptions{Profiler: col}); res.Trap != nil {
				b.Fatal(res.Trap)
			}
			m := mod.Clone()
			st, err := core.Protect(m, core.SchemeDupVal, col.Data(), core.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			counts[bins] = st.ValueChecks
		}
	}
	b.ReportMetric(float64(counts[2]), "checks_b2")
	b.ReportMetric(float64(counts[5]), "checks_b5")
	b.ReportMetric(float64(counts[8]), "checks_b8")
}

// BenchmarkAblationRangeThreshold sweeps R_thr (Algorithm 2's width bound).
func BenchmarkAblationRangeThreshold(b *testing.B) {
	counts := map[float64]int{}
	for i := 0; i < b.N; i++ {
		for _, thr := range []float64{64, 4096, 1 << 20} {
			p := core.DefaultParams()
			p.RangeThreshold = thr
			counts[thr] = protectAll(b, core.SchemeDupVal, p).ValueChecks
		}
	}
	b.ReportMetric(float64(counts[64]), "checks_rthr_64")
	b.ReportMetric(float64(counts[4096]), "checks_rthr_4096")
	b.ReportMetric(float64(counts[1<<20]), "checks_rthr_1M")
}

// BenchmarkProfileRun measures value profiling (§III-C1), the offline step
// that dominates set-up: one op is the Train-input profile run of every
// benchmark, and ns/dyn is its cost per dynamic instruction.
func BenchmarkProfileRun(b *testing.B) {
	var machs []*vm.Machine
	for _, w := range workloads.All() {
		mod, err := w.Compile()
		if err != nil {
			b.Fatal(err)
		}
		mach, err := vm.New(mod, vm.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Bind(mach, workloads.Train); err != nil {
			b.Fatal(err)
		}
		machs = append(machs, mach)
	}
	var dyn int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mach := range machs {
			mach.Reset()
			res := mach.Run(vm.RunOptions{Profiler: profile.NewCollector(profile.DefaultBins)})
			if res.Trap != nil {
				b.Fatal(res.Trap)
			}
			dyn += res.Dyn
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(dyn), "ns/dyn")
}
