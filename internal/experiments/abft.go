package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workloads"
)

// Extension experiment: ABFT kernel checksums versus the paper's selective
// protection on the kernel-dominated workloads (the ML and vision
// benchmarks, whose hot loops are matrix/accumulation nests). For each
// workload the experiment compares DupVal, ABFT alone, and the composed
// abft+dupval build on fault coverage, USDC rate, detection attribution,
// and fault-free runtime overhead.

// abftWorkloads are the kernel-dominated benchmarks ABFT targets.
var abftWorkloads = []string{"kmeans", "svm", "segm"}

// ABFTRow is one benchmark/scheme outcome.
type ABFTRow struct {
	Name     string
	Scheme   string
	Tally    fault.Tally
	Overhead float64
	Kernels  int // kernel loops checksummed (0 for non-ABFT schemes)
	Checks   int // ABFT exit checks inserted
}

// ABFTvsDupVal runs the comparison campaigns and renders the table.
func ABFTvsDupVal(cfg fault.Config) ([]ABFTRow, string, error) {
	schemes := []string{core.SchemeDupVal, core.SchemeABFT, "abft+dupval"}
	var rows []ABFTRow
	var cells [][]string
	for _, name := range abftWorkloads {
		w := workloads.ByName(name)
		p, err := Prepare(w)
		if err != nil {
			return nil, "", err
		}
		for _, sch := range schemes {
			variant, err := p.Variant(sch)
			if err != nil {
				return nil, "", err
			}
			ov, err := p.Overhead(sch)
			if err != nil {
				return nil, "", err
			}
			rep, err := cachedCampaign(p, sch, cfg)
			if err != nil {
				return nil, "", err
			}
			ta := rep.Tally
			rows = append(rows, ABFTRow{
				Name: name, Scheme: sch, Tally: ta, Overhead: ov,
				Kernels: variant.Stats.ABFTKernels, Checks: variant.Stats.ABFTChecks,
			})
			cells = append(cells, []string{
				name, sch,
				pct(ta.Coverage()), pct(ta.Frac(fault.USDC)),
				fmt.Sprintf("%d", ta.Count[fault.SWDetect]),
				fmt.Sprintf("%d/%d/%d", ta.SWDetectABFT, ta.SWDetectDup, ta.SWDetectValue),
				pct(ov),
				fmt.Sprintf("%d", variant.Stats.ABFTKernels),
			})
		}
	}
	table := renderTable(
		"Extension: ABFT kernel checksums vs selective protection (kernel workloads)",
		[]string{"benchmark", "scheme", "coverage", "USDC", "SWDetect", "abft/dup/val", "overhead", "kernels"},
		cells)
	return rows, table, nil
}
