package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
)

func TestABFTvsDupVal(t *testing.T) {
	cfg := fault.DefaultConfig()
	cfg.Trials = 40
	rows, table, err := ABFTvsDupVal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(abftWorkloads)*3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Tally.N != cfg.Trials {
			t.Errorf("%s/%s: N = %d, want %d", r.Name, r.Scheme, r.Tally.N, cfg.Trials)
		}
		if r.Overhead < 0 {
			t.Errorf("%s/%s: negative overhead %v", r.Name, r.Scheme, r.Overhead)
		}
		if abft := r.Scheme != core.SchemeDupVal; abft != (r.Kernels > 0) {
			t.Errorf("%s/%s: %d kernels checksummed", r.Name, r.Scheme, r.Kernels)
		}
	}
	matchGolden(t, "abft_t40.txt", table)
}
