package experiments

import (
	"strings"
	"testing"

	"repro/internal/fault"
)

func TestBranchFaultsCFCImprovesCoverage(t *testing.T) {
	cfg := fault.DefaultConfig()
	cfg.Trials = 120
	rows, table, err := BranchFaults(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfcWorkloads)*3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Per benchmark: the CFC build must beat the unprotected build's
	// coverage and detect via CFC checks.
	byName := map[string]map[string]fault.Tally{}
	for _, r := range rows {
		if byName[r.Name] == nil {
			byName[r.Name] = map[string]fault.Tally{}
		}
		byName[r.Name][r.Config] = r.Tally
	}
	for name, m := range byName {
		orig := m["Original"]
		cfcT := m["Dup + val chks + CFC"]
		if cfcT.SWDetectCFC == 0 {
			t.Errorf("%s: no CFC detections under branch faults", name)
		}
		if cfcT.Coverage() < orig.Coverage() {
			t.Errorf("%s: CFC coverage %.2f below original %.2f", name, cfcT.Coverage(), orig.Coverage())
		}
		if orig.SWDetectCFC != 0 {
			t.Errorf("%s: original build reported CFC detections", name)
		}
	}
	if !strings.Contains(table, "CFC detections") {
		t.Error("table missing CFC column")
	}
	matchGolden(t, "branchfaults_t120.txt", table)
}

func TestMultiInputProfilingReducesFalsePositives(t *testing.T) {
	rows, table, err := MultiInputProfiling()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("rows = %d", len(rows))
	}
	var singleFails, multiFails int64
	for _, r := range rows {
		singleFails += r.FailsSingle
		multiFails += r.FailsMulti
	}
	// The paper's claim is directional: merged profiles give more stable
	// invariants, so aggregate false positives must not increase.
	if multiFails > singleFails {
		t.Errorf("multi-input profiling increased false positives: %d -> %d", singleFails, multiFails)
	}
	t.Logf("aggregate fault-free check failures on held-out input: %d (1 profile) -> %d (2 profiles)", singleFails, multiFails)
	matchGolden(t, "multiprofile.txt", table)
}

func TestRecoveryExperiment(t *testing.T) {
	cfg := fault.DefaultConfig()
	cfg.Trials = 40
	rows, table, err := Recovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("rows = %d", len(rows))
	}
	anyRecovered := false
	for _, r := range rows {
		if r.Overhead < 0 {
			t.Errorf("%s: negative recovery overhead", r.Name)
		}
		if r.Recovered > 0 {
			anyRecovered = true
		}
	}
	if !anyRecovered {
		t.Error("no benchmark recovered any fault")
	}
	if !strings.Contains(table, "residual USDC") {
		t.Error("table missing residual USDC column")
	}
}
