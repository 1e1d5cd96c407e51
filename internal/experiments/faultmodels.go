package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workloads"
)

// Fault-model sweep: every registered fault model crossed with every
// registered protection scheme (plus the composed abft+dupval build). The
// paper's evaluation is a single-bit register-flip campaign; this sweep
// asks how far its coverage conclusions carry to heavier fault models —
// memory flips, multi-bit bursts, and the re-arming stuck-at and
// intermittent faults, which defeat one-shot masking by re-forcing the
// corruption for the rest of (or a window of) the run.

// fmWorkloads are the sweep benchmarks: one kernel-dominated workload
// where ABFT checksums bite (kmeans) and one control/table-driven codec
// (g721dec) where they do not.
var fmWorkloads = []string{"kmeans", "g721dec"}

// FaultModelRow is one workload/model/scheme campaign outcome.
type FaultModelRow struct {
	Workload string
	Model    string
	Scheme   string
	Tally    fault.Tally
}

// ci renders a proportion with its Wilson 95% interval.
func ci(successes, n int) string {
	lo, hi := fault.Wilson(successes, n, 1.96)
	p := 0.0
	if n > 0 {
		p = float64(successes) / float64(n)
	}
	return fmt.Sprintf("%.1f%% [%.1f,%.1f]", 100*p, 100*lo, 100*hi)
}

// FaultModelSweep runs the model x scheme campaign matrix and renders the
// per-model coverage/USDC table.
func FaultModelSweep(cfg fault.Config) ([]FaultModelRow, string, error) {
	schemes := append(core.SchemeNames(), "abft+dupval")
	var rows []FaultModelRow
	var cells [][]string
	for _, name := range fmWorkloads {
		w := workloads.ByName(name)
		p, err := Prepare(w)
		if err != nil {
			return nil, "", err
		}
		for _, model := range fault.ModelNames() {
			for _, sch := range schemes {
				c := cfg
				c.Model = model
				rep, err := cachedCampaign(p, sch, c)
				if err != nil {
					return nil, "", fmt.Errorf("%s/%s/%s: %w", name, model, sch, err)
				}
				ta := rep.Tally
				rows = append(rows, FaultModelRow{
					Workload: name, Model: model, Scheme: sch, Tally: ta,
				})
				covered := ta.Count[fault.Masked] + ta.Count[fault.HWDetect] + ta.Count[fault.SWDetect]
				cells = append(cells, []string{
					name, model, sch,
					ci(covered, ta.N),
					ci(ta.Count[fault.USDC], ta.N),
					fmt.Sprintf("%d", ta.Count[fault.SWDetect]),
					fmt.Sprintf("%d", ta.Count[fault.Failure]),
				})
			}
		}
	}
	table := renderTable(
		"Extension: fault-model sweep (coverage and USDC with Wilson 95% CIs)",
		[]string{"benchmark", "model", "scheme", "coverage", "USDC", "SWDetect", "failure"},
		cells)
	return rows, table, nil
}
