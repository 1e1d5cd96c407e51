package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/profile"
	"repro/internal/workloads"
)

// Extension experiments beyond the paper's evaluation proper:
//   - branch-target faults + signature-based control-flow checking (the
//     combination §IV-C proposes with reference [24]);
//   - multi-input profiling (§V: "the false positive rate can be further
//     reduced by combining profiling from multiple inputs").

// cfcWorkloads keeps the branch-fault experiment affordable.
var cfcWorkloads = []string{"segm", "g721dec", "kmeans"}

// CFCRow is one benchmark/configuration outcome under branch-target faults.
type CFCRow struct {
	Name   string
	Config string
	Tally  fault.Tally
}

// BranchFaults evaluates branch-target fault coverage for unprotected,
// Dup+val-chks, and Dup+val-chks+CFC (dupval+cfc) builds.
func BranchFaults(cfg fault.Config) ([]CFCRow, string, error) {
	cfg.Model = fault.ModelBranchTarget
	var rows []CFCRow
	var cells [][]string
	for _, name := range cfcWorkloads {
		w := workloads.ByName(name)
		p, err := Prepare(w)
		if err != nil {
			return nil, "", err
		}
		configs := []struct{ label, mode string }{
			{"Original", core.SchemeOriginal},
			{"Dup + val chks", core.SchemeDupVal},
			{"Dup + val chks + CFC", core.SchemeDupVal + "+" + core.SchemeCFC},
		}
		for _, c := range configs {
			rep, err := cachedCampaign(p, c.mode, cfg)
			if err != nil {
				return nil, "", err
			}
			rows = append(rows, CFCRow{Name: name, Config: c.label, Tally: rep.Tally})
			ta := rep.Tally
			cells = append(cells, []string{
				name, c.label,
				pct(ta.Frac(fault.Masked)), pct(ta.Frac(fault.HWDetect)),
				pct(ta.Frac(fault.SWDetect)), pct(ta.Frac(fault.Failure)),
				pct(ta.Frac(fault.USDC)), pct(ta.Coverage()),
				fmt.Sprintf("%d", ta.SWDetectCFC),
			})
		}
	}
	table := renderTable(
		"Extension: branch-target faults with signature-based control-flow checking",
		[]string{"benchmark", "configuration", "Masked", "HWDetect", "SWDetect", "Failure", "USDC", "coverage", "CFC detections"},
		cells)
	return rows, table, nil
}

// MultiProfileRow compares single- versus multi-input profiling.
type MultiProfileRow struct {
	Name                    string
	ChecksSingle            int
	ChecksMulti             int
	FailsSingle, FailsMulti int64
}

// MultiInputProfiling implements the paper's §V suggestion: profile on two
// inputs, insert checks only from the merged (more stable) profiles, and
// compare fault-free false-positive counts on a held-out third input.
func MultiInputProfiling() ([]MultiProfileRow, string, error) {
	var rows []MultiProfileRow
	var cells [][]string
	for _, w := range workloads.All() {
		mod, err := w.Compile()
		if err != nil {
			return nil, "", err
		}
		// One training-input profile serves both columns: building reads a
		// profile without changing it, so the single-input build runs
		// first and the second input is merged in afterwards.
		prof, err := profileOn(w, mod, workloads.Train)
		if err != nil {
			return nil, "", err
		}
		second, err := profileOn(w, mod, workloads.Test) // second profiling input
		if err != nil {
			return nil, "", err
		}

		// False positives are measured on a held-out third input neither
		// profile has seen.
		build := func(prof *profile.Data) (int, int64, error) {
			m := mod.Clone()
			st, err := core.Protect(m, core.SchemeDupVal, prof, core.DefaultParams())
			if err != nil {
				return 0, 0, err
			}
			rep, err := fault.FalsePositives(w.Target(workloads.Cross), m)
			if err != nil {
				return 0, 0, err
			}
			return st.ValueChecks, rep.CheckFails, nil
		}
		cs, fs, err := build(prof)
		if err != nil {
			return nil, "", err
		}
		prof.Merge(second)
		cm, fm, err := build(prof)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, MultiProfileRow{Name: w.Name, ChecksSingle: cs, ChecksMulti: cm, FailsSingle: fs, FailsMulti: fm})
		cells = append(cells, []string{
			w.Name,
			fmt.Sprintf("%d", cs), fmt.Sprintf("%d", fs),
			fmt.Sprintf("%d", cm), fmt.Sprintf("%d", fm),
		})
	}
	table := renderTable(
		"Extension: multi-input profiling (checks and fault-free check failures)",
		[]string{"benchmark", "checks (1 input)", "false pos (1)", "checks (2 inputs)", "false pos (2)"},
		cells)
	return rows, table, nil
}
