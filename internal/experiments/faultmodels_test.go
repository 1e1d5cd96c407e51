package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
)

func TestFaultModelSweepShape(t *testing.T) {
	cfg := fault.DefaultConfig()
	cfg.Trials = 10
	rows, table, err := FaultModelSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	schemes := len(core.SchemeNames()) + 1 // + abft+dupval
	want := len(fmWorkloads) * len(fault.ModelNames()) * schemes
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if r.Tally.N != cfg.Trials {
			t.Errorf("%s/%s/%s: N = %d, want %d", r.Workload, r.Model, r.Scheme, r.Tally.N, cfg.Trials)
		}
		seen[r.Model] = true
	}
	for _, m := range fault.ModelNames() {
		if !seen[m] {
			t.Errorf("model %s missing from sweep rows", m)
		}
		if !strings.Contains(table, m) {
			t.Errorf("table missing model %s", m)
		}
	}
	if !strings.Contains(table, "abft+dupval") {
		t.Error("table missing the composed abft+dupval scheme")
	}
	matchGolden(t, "faultmodels_t10.txt", table)
}
