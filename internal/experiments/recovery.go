package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workloads"
)

// RecoveryRow is one benchmark's outcome under restart recovery (§IV-D).
type RecoveryRow struct {
	Name      string
	Recovered int
	StillUSDC int
	Failures  int
	Overhead  float64 // mean slowdown vs fault-free, incl. re-executions
}

// Recovery runs the detection+restart-recovery pipeline on every benchmark
// with the full scheme (Dup + val chks): every software detection re-runs
// the program, which for transient faults restores the exact output. The
// residual USDC column therefore equals Figure 11's Dup+val-chks USDCs,
// and the overhead column is the end-to-end price of a recovered system.
func Recovery(cfg fault.Config) ([]RecoveryRow, string, error) {
	var rows []RecoveryRow
	var cells [][]string
	var sumOv float64
	totRec, totUSDC := 0, 0
	for _, w := range workloads.All() {
		p, err := Prepare(w)
		if err != nil {
			return nil, "", err
		}
		v, err := p.Variant(core.SchemeDupVal)
		if err != nil {
			return nil, "", err
		}
		rep, err := fault.RunWithRecovery(context.Background(), w.Target(workloads.Test), v.Module, "Dup + val chks", cfg)
		if err != nil {
			return nil, "", err
		}
		r := RecoveryRow{
			Name:      w.Name,
			Recovered: rep.Recovered,
			StillUSDC: rep.StillUSDC,
			Failures:  rep.Failures,
			Overhead:  rep.RecoveryOverhead(),
		}
		rows = append(rows, r)
		sumOv += r.Overhead
		totRec += r.Recovered
		totUSDC += r.StillUSDC
		cells = append(cells, []string{
			w.Name, fmt.Sprintf("%d", r.Recovered), fmt.Sprintf("%d", r.StillUSDC),
			fmt.Sprintf("%d", r.Failures), pct(r.Overhead),
		})
	}
	cells = append(cells, []string{"total/mean", fmt.Sprintf("%d", totRec), fmt.Sprintf("%d", totUSDC), "", pct(sumOv / float64(len(rows)))})
	table := renderTable(
		fmt.Sprintf("Recovery (§IV-D): restart on detection, Dup + val chks, %d faults per benchmark", cfg.Trials),
		[]string{"benchmark", "recovered", "residual USDC", "failures", "mean slowdown"},
		cells)
	return rows, table, nil
}
