package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// campaign cache: the figures and extension tables that share campaigns
// (Figures 2, 11 and 13, the fault-model sweep's reg-flip rows) reuse runs.
var (
	campMu    sync.Mutex
	campCache = map[campKey]*fault.Report{}
)

// campKey is a cached campaign's identity: the workload, the scheme and
// every fault.Config field that can change its Report, the model by its
// resolved name ("" and "reg-flip" are one campaign). The throughput knobs
// (Workers, Engine, Checkpoints, Lockstep, Fuse, Converge) are left out, as
// in the journal header; so are the journal and the hooks.
type campKey struct {
	workload, mode, model        string
	trials, shardStart, shardEnd int
	seed, window, watchdog       int64
	largeChange, targetCI        float64
	trialTimeout                 time.Duration
}

// cachedCampaign runs (or reuses) a campaign on the test input. Every
// experiment that runs fault.Run on a Prepared variant goes through it.
func cachedCampaign(p *Prepared, mode string, cfg fault.Config) (*fault.Report, error) {
	model, err := fault.LookupModel(cfg.Model)
	if err != nil {
		return nil, err
	}
	key := campKey{
		workload: p.Workload.Name, mode: mode, model: model.Name(),
		trials: cfg.Trials, shardStart: cfg.ShardStart, shardEnd: cfg.ShardEnd,
		seed: cfg.Seed, window: cfg.SymptomWindow, watchdog: cfg.WatchdogFactor,
		largeChange: cfg.LargeChange, targetCI: cfg.TargetCI, trialTimeout: cfg.TrialTimeout,
	}
	campMu.Lock()
	if r, ok := campCache[key]; ok {
		campMu.Unlock()
		return r, nil
	}
	campMu.Unlock()
	r, err := Campaign(p, mode, workloads.Test, cfg)
	if err != nil {
		return nil, err
	}
	campMu.Lock()
	campCache[key] = r
	campMu.Unlock()
	return r, nil
}

// TableI renders the benchmark inventory.
func TableI() string {
	headers := []string{"Benchmark (Suite)", "Description (Category)", "Inputs", "Fidelity Measure (Threshold)"}
	var rows [][]string
	for _, w := range workloads.All() {
		rows = append(rows, []string{
			fmt.Sprintf("%s (%s)", w.Name, w.Suite),
			fmt.Sprintf("%s (%s)", w.Desc, w.Category),
			w.InputDesc,
			w.Judge.Describe(),
		})
	}
	return renderTable("Table I: Benchmarks and fidelity measures", headers, rows)
}

// TableII renders the simulated machine configuration.
func TableII() string {
	t := vm.DefaultTiming()
	c := vm.DefaultConfig()
	headers := []string{"Parameter", "Value"}
	rows := [][]string{
		{"Simulation configuration", "interpreted SSA IR, dependence-aware issue model"},
		{"Issue width", fmt.Sprintf("%d", t.IssueWidth)},
		{"Int ALU / Mul / Div latency", fmt.Sprintf("%d / %d / %d cycles", t.LatInt, t.LatMul, t.LatDiv)},
		{"FP Add / Mul / Div latency", fmt.Sprintf("%d / %d / %d cycles", t.LatFAdd, t.LatFMul, t.LatFDiv)},
		{"L1-D cache", fmt.Sprintf("%d lines x %d words, direct mapped", t.CacheLines, t.CacheLineWords)},
		{"Load latency / miss penalty", fmt.Sprintf("%d / %d cycles", t.LatLoad, t.MissPenalty)},
		{"Branch predictor", fmt.Sprintf("2-bit, %d entries; %d-cycle mispredict", t.PredictorSlots, t.BranchPenalty)},
		{"Stack / watchdog", fmt.Sprintf("%d words / %d dynamic instructions", c.StackWords, c.MaxDyn)},
	}
	return renderTable("Table II: Simulated machine (gem5 ARMv7-a stand-in)", headers, rows)
}

// Fig1 reproduces the Figure 1 narrative: fault-free vs imperceptibly
// corrupted vs unacceptably corrupted jpegdec outputs, reported as PSNR.
func Fig1(cfg fault.Config) (string, error) {
	p, err := Prepare(workloads.ByName("jpegdec"))
	if err != nil {
		return "", err
	}
	rep, err := cachedCampaign(p, core.SchemeOriginal, cfg)
	if err != nil {
		return "", err
	}
	var asdc, usdc *fault.Trial
	for i := range rep.Trials {
		tr := &rep.Trials[i]
		if !tr.SDC {
			continue
		}
		if tr.Acceptable && asdc == nil {
			asdc = tr
		}
		if !tr.Acceptable && usdc == nil {
			usdc = tr
		}
	}
	var b strings.Builder
	b.WriteString("Figure 1: jpegdec outputs under injected faults (PSNR vs fault-free)\n")
	b.WriteString("  (a) no fault:            PSNR = +Inf dB (bit exact)\n")
	if asdc != nil {
		fmt.Fprintf(&b, "  (b) imperceptible fault: PSNR = %.1f dB (>= 30 dB: acceptable)\n", asdc.Fidelity)
	} else {
		b.WriteString("  (b) imperceptible fault: none observed in this campaign\n")
	}
	if usdc != nil {
		fmt.Fprintf(&b, "  (c) unacceptable fault:  PSNR = %.1f dB (< 30 dB: USDC)\n", usdc.Fidelity)
	} else {
		b.WriteString("  (c) unacceptable fault:  none observed in this campaign\n")
	}
	return b.String(), nil
}

// Fig2Row is one benchmark's SDC decomposition on the unmodified binary.
type Fig2Row struct {
	Name           string
	SDCRate        float64 // SDCs / trials
	ASDCShare      float64 // of SDCs
	USDCLargeShare float64 // of SDCs
	USDCSmallShare float64 // of SDCs
}

// Fig2 decomposes SDCs of unmodified applications into acceptable SDCs and
// unacceptable SDCs due to large/small value changes.
func Fig2(cfg fault.Config) ([]Fig2Row, string, error) {
	var rows []Fig2Row
	var cells [][]string
	var meanASDC, meanLarge, meanSmall, meanSDC []float64
	for _, w := range workloads.All() {
		p, err := Prepare(w)
		if err != nil {
			return nil, "", err
		}
		rep, err := cachedCampaign(p, core.SchemeOriginal, cfg)
		if err != nil {
			return nil, "", err
		}
		ta := rep.Tally
		r := Fig2Row{Name: w.Name, SDCRate: float64(ta.SDC) / float64(ta.N)}
		if ta.SDC > 0 {
			r.ASDCShare = float64(ta.ASDC) / float64(ta.SDC)
			r.USDCLargeShare = float64(ta.USDCLarge) / float64(ta.SDC)
			r.USDCSmallShare = float64(ta.USDCSmall) / float64(ta.SDC)
		}
		rows = append(rows, r)
		meanSDC = append(meanSDC, r.SDCRate)
		meanASDC = append(meanASDC, r.ASDCShare)
		meanLarge = append(meanLarge, r.USDCLargeShare)
		meanSmall = append(meanSmall, r.USDCSmallShare)
		cells = append(cells, []string{w.Name, pct(r.SDCRate), pct(r.ASDCShare), pct(r.USDCLargeShare), pct(r.USDCSmallShare)})
	}
	cells = append(cells, []string{"mean", pct(Mean(meanSDC)), pct(Mean(meanASDC)), pct(Mean(meanLarge)), pct(Mean(meanSmall))})
	table := renderTable(
		"Figure 2: SDC breakdown on unmodified binaries (shares of total SDCs)",
		[]string{"benchmark", "SDC rate", "ASDC", "USDC large-chg", "USDC small-chg"},
		cells)
	return rows, table, nil
}

// Fig10Row is one benchmark's static protection statistics.
type Fig10Row struct {
	Name        string
	StateVars   float64
	Duplicated  float64
	ValueChecks float64
	TotalInstrs int
}

// Fig10 reports state variables, duplicated instructions and value checks
// as fractions of static IR instructions (Dup + val chks build).
func Fig10() ([]Fig10Row, string, error) {
	var rows []Fig10Row
	var cells [][]string
	var fs, fd, fv []float64
	for _, w := range workloads.All() {
		p, err := Prepare(w)
		if err != nil {
			return nil, "", err
		}
		v, err := p.Variant(core.SchemeDupVal)
		if err != nil {
			return nil, "", err
		}
		st := v.Stats
		r := Fig10Row{
			Name:        w.Name,
			StateVars:   st.FracStateVars(),
			Duplicated:  st.FracDuplicated(),
			ValueChecks: st.FracValueChecks(),
			TotalInstrs: st.TotalInstrs,
		}
		rows = append(rows, r)
		fs = append(fs, r.StateVars)
		fd = append(fd, r.Duplicated)
		fv = append(fv, r.ValueChecks)
		cells = append(cells, []string{w.Name, fmt.Sprintf("%d", r.TotalInstrs), pct(r.StateVars), pct(r.Duplicated), pct(r.ValueChecks)})
	}
	cells = append(cells, []string{"mean", "", pct(Mean(fs)), pct(Mean(fd)), pct(Mean(fv))})
	table := renderTable(
		"Figure 10: static protection statistics (fraction of static IR instructions)",
		[]string{"benchmark", "static instrs", "state vars", "duplicated", "value checks"},
		cells)
	return rows, table, nil
}

// Fig11Row is one benchmark/technique outcome classification.
type Fig11Row struct {
	Name  string
	Mode  string
	Tally fault.Tally
}

// fig11Modes are the three bars per benchmark in Figure 11.
var fig11Modes = []string{core.SchemeOriginal, core.SchemeDup, core.SchemeDupVal}

// Fig11 classifies injected faults for Original, Dup only and Dup+val chks.
// The full-duplication USDC comparison quoted in §V is appended.
func Fig11(cfg fault.Config) ([]Fig11Row, string, error) {
	var rows []Fig11Row
	var cells [][]string
	means := map[string]*[5]float64{}
	cov := map[string][]float64{}
	for _, mode := range fig11Modes {
		means[mode] = &[5]float64{}
	}
	for _, w := range workloads.All() {
		p, err := Prepare(w)
		if err != nil {
			return nil, "", err
		}
		for _, mode := range fig11Modes {
			rep, err := cachedCampaign(p, mode, cfg)
			if err != nil {
				return nil, "", err
			}
			rows = append(rows, Fig11Row{Name: w.Name, Mode: mode, Tally: rep.Tally})
			ta := rep.Tally
			cells = append(cells, []string{
				w.Name, core.Title(mode),
				pct(ta.Frac(fault.Masked)), pct(ta.Frac(fault.HWDetect)),
				pct(ta.Frac(fault.SWDetect)), pct(ta.Frac(fault.Failure)),
				pct(ta.Frac(fault.USDC)), pct(ta.Coverage()),
			})
			for o := 0; o < 5; o++ {
				means[mode][o] += ta.Frac(fault.Outcome(o))
			}
			cov[mode] = append(cov[mode], ta.Coverage())
		}
	}
	n := float64(len(workloads.All()))
	for _, mode := range fig11Modes {
		cells = append(cells, []string{
			"mean", core.Title(mode),
			pct(means[mode][0] / n), pct(means[mode][1] / n),
			pct(means[mode][2] / n), pct(means[mode][3] / n),
			pct(means[mode][4] / n), pct(Mean(cov[mode])),
		})
	}
	table := renderTable(
		"Figure 11: fault outcome classification (percent of injected faults)",
		[]string{"benchmark", "technique", "Masked", "HWDetect", "SWDetect", "Failure", "USDC", "coverage"},
		cells)
	return rows, table, nil
}

// FullDupUSDC reproduces the §V quote: full duplication's mean USDC rate
// (paper: 1.4% at 57% overhead).
func FullDupUSDC(cfg fault.Config) (float64, error) {
	var usdc []float64
	for _, w := range workloads.All() {
		p, err := Prepare(w)
		if err != nil {
			return 0, err
		}
		rep, err := cachedCampaign(p, core.SchemeFullDup, cfg)
		if err != nil {
			return 0, err
		}
		usdc = append(usdc, rep.Tally.Frac(fault.USDC))
	}
	return Mean(usdc), nil
}

// Fig12Row is one benchmark's overheads.
type Fig12Row struct {
	Name    string
	DupOnly float64
	DupVal  float64
	FullDup float64
}

// Fig12 reports runtime overhead per technique (paper means: 7.6%, 19.5%,
// 57%).
func Fig12() ([]Fig12Row, string, error) {
	var rows []Fig12Row
	var cells [][]string
	var od, ov, of []float64
	for _, w := range workloads.All() {
		p, err := Prepare(w)
		if err != nil {
			return nil, "", err
		}
		r := Fig12Row{Name: w.Name}
		for mode, dst := range map[string]*float64{
			core.SchemeDup:     &r.DupOnly,
			core.SchemeDupVal:  &r.DupVal,
			core.SchemeFullDup: &r.FullDup,
		} {
			if *dst, err = p.Overhead(mode); err != nil {
				return nil, "", err
			}
		}
		rows = append(rows, r)
		od = append(od, r.DupOnly)
		ov = append(ov, r.DupVal)
		of = append(of, r.FullDup)
		cells = append(cells, []string{w.Name, pct(r.DupOnly), pct(r.DupVal), pct(r.FullDup)})
	}
	cells = append(cells, []string{"mean", pct(Mean(od)), pct(Mean(ov)), pct(Mean(of))})
	table := renderTable(
		"Figure 12: runtime overhead vs unmodified binary",
		[]string{"benchmark", "Dup only", "Dup + val chks", "Full duplication"},
		cells)
	return rows, table, nil
}

// Fig13Row is one benchmark/technique SDC decomposition.
type Fig13Row struct {
	Name string
	Mode string
	SDC  float64 // of trials
	ASDC float64 // of trials
	USDC float64 // of trials
}

// Fig13 splits total SDCs into acceptable and unacceptable per technique
// (paper means: SDC 15->9.5->7.3%, USDC 3.4->1.8->1.2%).
func Fig13(cfg fault.Config) ([]Fig13Row, string, error) {
	var rows []Fig13Row
	var cells [][]string
	sums := map[string]*Fig13Row{}
	for _, mode := range fig11Modes {
		sums[mode] = &Fig13Row{}
	}
	for _, w := range workloads.All() {
		p, err := Prepare(w)
		if err != nil {
			return nil, "", err
		}
		for _, mode := range fig11Modes {
			rep, err := cachedCampaign(p, mode, cfg)
			if err != nil {
				return nil, "", err
			}
			ta := rep.Tally
			n := float64(ta.N)
			r := Fig13Row{
				Name: w.Name, Mode: mode,
				SDC:  float64(ta.SDC) / n,
				ASDC: float64(ta.ASDC) / n,
				USDC: float64(ta.USDCLarge+ta.USDCSmall) / n,
			}
			rows = append(rows, r)
			sums[mode].SDC += r.SDC
			sums[mode].ASDC += r.ASDC
			sums[mode].USDC += r.USDC
			cells = append(cells, []string{w.Name, core.Title(mode), pct2(r.SDC), pct2(r.ASDC), pct2(r.USDC)})
		}
	}
	n := float64(len(workloads.All()))
	for _, mode := range fig11Modes {
		s := sums[mode]
		cells = append(cells, []string{"mean", core.Title(mode), pct2(s.SDC / n), pct2(s.ASDC / n), pct2(s.USDC / n)})
	}
	table := renderTable(
		"Figure 13: SDCs split into acceptable (ASDC) and unacceptable (USDC), percent of injected faults",
		[]string{"benchmark", "technique", "SDC", "ASDC", "USDC"},
		cells)
	return rows, table, nil
}
