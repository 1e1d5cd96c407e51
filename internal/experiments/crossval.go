package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workloads"
)

// CrossValRow compares normal (profile on train, inject on test) against
// swapped (profile on test, inject on train) for one benchmark — the
// paper's 2-fold cross-validation on jpegdec and kmeans.
type CrossValRow struct {
	Name            string
	Normal, Swapped fault.Tally
	OverheadNormal  float64
	OverheadSwapped float64
	// MaxOutcomeDelta is the largest absolute difference across the five
	// outcome fractions (paper reports deltas of a fraction of a percent).
	MaxOutcomeDelta float64
}

// buildDupVal builds a Dup+val-chks variant profiled on the given input.
func buildDupVal(w *workloads.Workload, profKind workloads.InputKind) (*Variant, error) {
	mod, err := w.Compile()
	if err != nil {
		return nil, err
	}
	prof, err := profileOn(w, mod, profKind)
	if err != nil {
		return nil, err
	}
	m := mod.Clone()
	stats, err := core.Protect(m, core.SchemeDupVal, prof, core.DefaultParams())
	if err != nil {
		return nil, err
	}
	return &Variant{Mode: core.SchemeDupVal, Module: m, Stats: stats}, nil
}

// overheadOn measures runtime overhead of a variant on one input kind.
func overheadOn(w *workloads.Workload, v *Variant, kind workloads.InputKind) (float64, error) {
	base, err := w.Compile()
	if err != nil {
		return 0, err
	}
	r0, err := timedRun(w, base, kind)
	if err != nil {
		return 0, err
	}
	r1, err := timedRun(w, v.Module, kind)
	if err != nil {
		return 0, err
	}
	return float64(r1.Cycles)/float64(r0.Cycles) - 1, nil
}

// CrossValidation runs the paper's §V sensitivity experiment on jpegdec and
// kmeans.
func CrossValidation(cfg fault.Config) ([]CrossValRow, string, error) {
	var rows []CrossValRow
	var cells [][]string
	for _, name := range []string{"jpegdec", "kmeans"} {
		w := workloads.ByName(name)

		normalVar, err := buildDupVal(w, workloads.Train)
		if err != nil {
			return nil, "", err
		}
		swappedVar, err := buildDupVal(w, workloads.Test)
		if err != nil {
			return nil, "", err
		}

		normRep, err := fault.Run(context.Background(), w.Target(workloads.Test), normalVar.Module, "normal", cfg)
		if err != nil {
			return nil, "", err
		}
		swapRep, err := fault.Run(context.Background(), w.Target(workloads.Train), swappedVar.Module, "swapped", cfg)
		if err != nil {
			return nil, "", err
		}

		ovN, err := overheadOn(w, normalVar, workloads.Test)
		if err != nil {
			return nil, "", err
		}
		ovS, err := overheadOn(w, swappedVar, workloads.Train)
		if err != nil {
			return nil, "", err
		}

		r := CrossValRow{
			Name: name, Normal: normRep.Tally, Swapped: swapRep.Tally,
			OverheadNormal: ovN, OverheadSwapped: ovS,
		}
		for o := 0; o < 5; o++ {
			d := math.Abs(r.Normal.Frac(fault.Outcome(o)) - r.Swapped.Frac(fault.Outcome(o)))
			if d > r.MaxOutcomeDelta {
				r.MaxOutcomeDelta = d
			}
		}
		rows = append(rows, r)
		cells = append(cells, []string{
			name,
			pct(r.OverheadNormal), pct(r.OverheadSwapped),
			pct(r.Normal.Frac(fault.USDC)), pct(r.Swapped.Frac(fault.USDC)),
			pct(r.MaxOutcomeDelta),
		})
	}
	table := renderTable(
		"Cross-validation (profile/test inputs swapped), Dup + val chks",
		[]string{"benchmark", "overhead", "overhead(swap)", "USDC", "USDC(swap)", "max outcome delta"},
		cells)
	return rows, table, nil
}

// FalsePosRow is one benchmark's fault-free check-failure rate.
type FalsePosRow struct {
	Name         string
	Dyn          int64
	Fails        int64
	InstrPerFail float64
}

// FalsePositivesAll measures the §V false-positive rate (paper: 1 check
// failure per ~235K instructions on average) for Dup + val chks binaries.
func FalsePositivesAll() ([]FalsePosRow, string, error) {
	var rows []FalsePosRow
	var cells [][]string
	var totalDyn, totalFails int64
	for _, w := range workloads.All() {
		p, err := Prepare(w)
		if err != nil {
			return nil, "", err
		}
		v, err := p.Variant(core.SchemeDupVal)
		if err != nil {
			return nil, "", err
		}
		rep, err := fault.FalsePositives(w.Target(workloads.Test), v.Module)
		if err != nil {
			return nil, "", err
		}
		r := FalsePosRow{Name: w.Name, Dyn: rep.Dyn, Fails: rep.CheckFails, InstrPerFail: rep.InstrPerFail}
		rows = append(rows, r)
		totalDyn += r.Dyn
		totalFails += r.Fails
		rate := "none"
		if r.Fails > 0 {
			rate = fmt.Sprintf("1 per %.0f", r.InstrPerFail)
		}
		cells = append(cells, []string{w.Name, fmt.Sprintf("%d", r.Dyn), fmt.Sprintf("%d", r.Fails), rate})
	}
	agg := "none"
	if totalFails > 0 {
		agg = fmt.Sprintf("1 per %.0f", float64(totalDyn)/float64(totalFails))
	}
	cells = append(cells, []string{"aggregate", fmt.Sprintf("%d", totalDyn), fmt.Sprintf("%d", totalFails), agg})
	table := renderTable(
		"False positives: value-check failures on fault-free test-input runs",
		[]string{"benchmark", "dynamic instrs", "check fails", "rate"},
		cells)
	return rows, table, nil
}
