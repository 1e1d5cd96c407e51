package fault_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workloads"
)

func TestRestartRecoveryAlwaysProducesGoldenOutput(t *testing.T) {
	w := workloads.ByName("g721dec")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prot := mod.Clone()
	if _, err := core.Protect(prot, core.SchemeDup, nil, core.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	cfg := fault.DefaultConfig()
	cfg.Trials = 200
	rep, err := fault.RunWithRecovery(context.Background(), w.Target(workloads.Test), prot, "DupOnly", cfg)
	if err != nil {
		t.Fatal(err) // RunWithRecovery errors if any recovery output is wrong
	}
	if rep.Recovered == 0 {
		t.Fatal("no trial recovered — duplication checks never fired")
	}
	// Recovery costs more than the fault-free run on average (re-execution
	// after every detection) but the slowdown is bounded by roughly one
	// extra run's worth per detection.
	ov := rep.RecoveryOverhead()
	if ov <= 0 {
		t.Errorf("recovery overhead %.3f should be positive", ov)
	}
	maxOv := 2.0 * float64(rep.Recovered) / float64(rep.Trials) // safety margin
	if ov > maxOv+0.25 {
		t.Errorf("recovery overhead %.3f implausibly high (recovered %d/%d)", ov, rep.Recovered, rep.Trials)
	}
	t.Logf("recovered=%d stillUSDC=%d failures=%d overhead=%.2f%%",
		rep.Recovered, rep.StillUSDC, rep.Failures, 100*ov)
}

func TestRecoveryReducesUSDCVsDetectionOnly(t *testing.T) {
	w := workloads.ByName("segm")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prot := mod.Clone()
	if _, err := core.Protect(prot, core.SchemeDup, nil, core.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	cfg := fault.DefaultConfig()
	cfg.Trials = 150
	rep, err := fault.RunWithRecovery(context.Background(), w.Target(workloads.Test), prot, "DupOnly", cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, "DupOnly", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Detection-only counts SWDetects; under recovery those become correct
	// completions, so residual USDCs must match the detection-only USDCs.
	if rep.StillUSDC != plain.Tally.Count[fault.USDC] {
		t.Errorf("residual USDCs %d != detection-only USDCs %d", rep.StillUSDC, plain.Tally.Count[fault.USDC])
	}
	if rep.Recovered != plain.Tally.Count[fault.SWDetect] {
		t.Errorf("recovered %d != SWDetects %d", rep.Recovered, plain.Tally.Count[fault.SWDetect])
	}
}

// TestRecoveryRejectsUnsupported checks that restart recovery refuses what
// it cannot honour instead of silently ignoring it: durable or sharded
// campaigns (per-trial cycle counts are not journaled) and quarantined
// trials (RecoveryReport has no anomaly list).
func TestRecoveryRejectsUnsupported(t *testing.T) {
	w := workloads.ByName("kmeans")
	mod, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "recovery.journal")
	for name, mutate := range map[string]func(*fault.Config){
		"journal": func(c *fault.Config) { c.JournalPath = journal },
		"resume":  func(c *fault.Config) { c.Resume = true },
		"shard":   func(c *fault.Config) { c.ShardStart, c.ShardEnd = 0, 10 },
		"quarantine": func(c *fault.Config) {
			c.OnTrial = func(i int) {
				if i == 3 {
					panic("boom")
				}
			}
		},
	} {
		cfg := fault.DefaultConfig()
		cfg.Trials = 20
		mutate(&cfg)
		if _, err := fault.RunWithRecovery(context.Background(), w.Target(workloads.Test), mod, "Original", cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("rejected recovery campaign touched its journal: %v", err)
	}
}
