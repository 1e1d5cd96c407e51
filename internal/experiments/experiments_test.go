package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workloads"
)

// tinyCfg keeps test campaigns fast; statistical assertions below are only
// directional.
func tinyCfg() fault.Config {
	cfg := fault.DefaultConfig()
	cfg.Trials = 60
	return cfg
}

func TestTableIListsAllBenchmarks(t *testing.T) {
	out := TableI()
	for _, name := range workloads.Names() {
		if !strings.Contains(out, name) {
			t.Errorf("Table I missing %s", name)
		}
	}
	if !strings.Contains(out, "PSNR") || !strings.Contains(out, "Classification error") {
		t.Error("Table I missing fidelity measures")
	}
}

func TestTableIIRendersConfig(t *testing.T) {
	out := TableII()
	for _, want := range []string{"Issue width", "2", "cache", "predictor"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q:\n%s", want, out)
		}
	}
}

func TestFig10StaticStats(t *testing.T) {
	rows, table, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.StateVars <= 0 {
			t.Errorf("%s: no state variables", r.Name)
		}
		if r.Duplicated <= 0 {
			t.Errorf("%s: nothing duplicated", r.Name)
		}
		if r.Duplicated > 0.5 {
			t.Errorf("%s: duplicated fraction %.2f too high (paper max 11.4%%)", r.Name, r.Duplicated)
		}
	}
	if !strings.Contains(table, "mean") {
		t.Error("missing mean row")
	}
	matchGolden(t, "fig10.txt", table)
}

func TestFig12OverheadShape(t *testing.T) {
	rows, table, err := Fig12()
	if err != nil {
		t.Fatal(err)
	}
	var dup, val, full []float64
	for _, r := range rows {
		if r.DupOnly < 0 || r.FullDup < 0 {
			t.Errorf("%s: negative overhead %v/%v", r.Name, r.DupOnly, r.FullDup)
		}
		dup = append(dup, r.DupOnly)
		val = append(val, r.DupVal)
		full = append(full, r.FullDup)
	}
	mDup, mVal, mFull := Mean(dup), Mean(val), Mean(full)
	t.Logf("mean overheads: dup=%.1f%% dup+val=%.1f%% full=%.1f%%", 100*mDup, 100*mVal, 100*mFull)
	// Paper shape: DupOnly (7.6%) < DupVal (19.5%) < FullDup (57%).
	if !(mDup < mFull && mVal < mFull) {
		t.Errorf("full duplication is not the most expensive: %v %v %v", mDup, mVal, mFull)
	}
	if mDup > mVal {
		t.Errorf("mean DupOnly overhead %v exceeds DupVal %v", mDup, mVal)
	}
	matchGolden(t, "fig12.txt", table)
}

func TestFig2SharesSumToOne(t *testing.T) {
	rows, table, err := Fig2(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SDCRate > 0 {
			sum := r.ASDCShare + r.USDCLargeShare + r.USDCSmallShare
			if sum < 0.999 || sum > 1.001 {
				t.Errorf("%s: SDC shares sum to %v", r.Name, sum)
			}
		}
	}
	if !strings.Contains(table, "ASDC") {
		t.Error("table missing ASDC column")
	}
	matchGolden(t, "fig2_t60.txt", table)
}

func TestFig11And13Directional(t *testing.T) {
	cfg := tinyCfg()
	rows11, table11, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate USDC by mode.
	usdc := map[string]int{}
	trials := map[string]int{}
	sw := map[string]int{}
	for _, r := range rows11 {
		usdc[r.Mode] += r.Tally.Count[fault.USDC]
		trials[r.Mode] += r.Tally.N
		sw[r.Mode] += r.Tally.Count[fault.SWDetect]
	}
	if sw[core.SchemeOriginal] != 0 {
		t.Error("original binaries produced SWDetects")
	}
	if sw[core.SchemeDup] == 0 || sw[core.SchemeDupVal] == 0 {
		t.Error("protected binaries produced no SWDetects")
	}
	// Directional: protection must not increase aggregate USDCs.
	if usdc[core.SchemeDupVal] > usdc[core.SchemeOriginal] {
		t.Errorf("DupVal USDCs %d > original %d", usdc[core.SchemeDupVal], usdc[core.SchemeOriginal])
	}
	t.Logf("aggregate USDC: orig=%d dup=%d dup+val=%d (of %d trials each)",
		usdc[core.SchemeOriginal], usdc[core.SchemeDup], usdc[core.SchemeDupVal], trials[core.SchemeOriginal])
	matchGolden(t, "fig11_t60.txt", table11)

	rows13, table13, err := Fig13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows13 {
		if r.SDC+1e-9 < r.ASDC+r.USDC {
			t.Errorf("%s/%s: SDC %v < ASDC+USDC %v", r.Name, r.Mode, r.SDC, r.ASDC+r.USDC)
		}
	}
	matchGolden(t, "fig13_t60.txt", table13)
}

func TestFig1Narrative(t *testing.T) {
	cfg := tinyCfg()
	cfg.Trials = 200
	out, err := Fig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no fault") {
		t.Fatalf("unexpected Fig1 output:\n%s", out)
	}
}

func TestFalsePositivesAll(t *testing.T) {
	rows, table, err := FalsePositivesAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Fails > 0 && r.InstrPerFail < 100 {
			t.Errorf("%s: false positive every %.0f instructions is uselessly noisy", r.Name, r.InstrPerFail)
		}
	}
	matchGolden(t, "falsepos.txt", table)
}

func TestCrossValidationDeltasSmall(t *testing.T) {
	cfg := tinyCfg()
	cfg.Trials = 120
	rows, table, err := CrossValidation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Paper: outcome deltas are fractions of a percent; with 120
		// trials, allow a loose statistical bound.
		if r.MaxOutcomeDelta > 0.25 {
			t.Errorf("%s: outcome delta %.2f implausibly large", r.Name, r.MaxOutcomeDelta)
		}
	}
	matchGolden(t, "crossval_t120.txt", table)
}

func TestFullDupUSDC(t *testing.T) {
	v, err := FullDupUSDC(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if v < 0 || v > 0.2 {
		t.Fatalf("full-dup USDC rate %v out of plausible range", v)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty input should give 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}

// TestCachedCampaignKeysOnResultFields asks the figure cache again with each
// result-affecting fault.Config field changed: it must return that
// configuration's Report, not the first call's. A throughput knob, or
// naming the default model, must still hit the first entry.
func TestCachedCampaignKeysOnResultFields(t *testing.T) {
	p, err := Prepare(workloads.ByName("g721dec"))
	if err != nil {
		t.Fatal(err)
	}
	mode := core.SchemeOriginal
	base := tinyCfg()
	base.Trials = 24
	first, err := cachedCampaign(p, mode, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		field string
		set   func(*fault.Config)
	}{
		{"Model", func(c *fault.Config) { c.Model = "branch-target" }},
		{"LargeChange", func(c *fault.Config) { c.LargeChange = 1e-6 }},
		{"WatchdogFactor", func(c *fault.Config) { c.WatchdogFactor = 2 }},
		{"SymptomWindow", func(c *fault.Config) { c.SymptomWindow = 1 }},
		{"Seed", func(c *fault.Config) { c.Seed++ }},
	} {
		cfg := base
		c.set(&cfg)
		got, err := cachedCampaign(p, mode, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got == first {
			t.Errorf("%s changed but the cache returned the first report", c.field)
			continue
		}
		want, err := Campaign(p, mode, workloads.Test, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: cached report differs from a fresh campaign", c.field)
		}
	}
	cfg := base
	cfg.Workers = 1
	if got, err := cachedCampaign(p, mode, cfg); err != nil || got != first {
		t.Errorf("Workers is a throughput knob but missed the cache (err %v)", err)
	}
	cfg = base
	cfg.Model = fault.ModelRegFlip
	if got, err := cachedCampaign(p, mode, cfg); err != nil || got != first {
		t.Errorf("Model %q is the default model but missed the cache (err %v)", cfg.Model, err)
	}
}
