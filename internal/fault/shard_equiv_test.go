package fault_test

// Shard-merge equivalence: a campaign split across shard subranges, each
// run as its own journaled fault.Run, must merge (MergeShardJournals) into
// a Report bit-identical to an uninterrupted single-process run — the
// soundness claim the distributed campaign service is built on. Also
// covers the crash/reassign shape: a shard killed mid-run is consolidated
// and resumed by a "new attempt", and the merge still matches.

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// shardRanges splits [0,trials) into n contiguous subranges, remainder
// spread over the leading shards — the same split the coordinator uses.
func shardRanges(trials, n int) [][2]int {
	per, rem := trials/n, trials%n
	ranges := make([][2]int, 0, n)
	lo := 0
	for s := 0; s < n; s++ {
		hi := lo + per
		if s < rem {
			hi++
		}
		ranges = append(ranges, [2]int{lo, hi})
		lo = hi
	}
	return ranges
}

// runSharded executes cfg as n journaled shard runs, each under ctx, and
// returns the journal paths ready for merging.
func runSharded(ctx context.Context, t *testing.T, w *workloads.Workload, mod *ir.Module, technique string, cfg fault.Config, n int) []string {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for s, r := range shardRanges(cfg.Trials, n) {
		c := cfg
		c.ShardStart, c.ShardEnd = r[0], r[1]
		c.JournalPath = filepath.Join(dir, fmt.Sprintf("shard%02d.journal", s))
		rep, err := fault.Run(ctx, w.Target(workloads.Test), mod.Clone(), technique, c)
		if err != nil {
			t.Fatalf("shard [%d,%d): %v", r[0], r[1], err)
		}
		if rep.Partial {
			t.Fatalf("shard [%d,%d): completed shard marked Partial", r[0], r[1])
		}
		if got := rep.Tally.N + len(rep.Anomalies); got != r[1]-r[0] {
			t.Fatalf("shard [%d,%d): decided %d trials, want %d", r[0], r[1], got, r[1]-r[0])
		}
		paths = append(paths, c.JournalPath)
	}
	return paths
}

func TestShardMergeEquivalence(t *testing.T) {
	cells := []struct {
		workload  string
		mode      string
		technique string
		model     string
	}{
		{"tiff2bw", core.SchemeOriginal, "Original", fault.ModelRegFlip},
		{"g721dec", core.SchemeDup, "DupOnly", fault.ModelRegFlip},
		{"svm", core.SchemeDupVal, "DupVal", fault.ModelMemFlip},
		{"kmeans", core.SchemeABFT, "ABFT", fault.ModelBranchTarget},
		{"jpegdec", core.SchemeFullDup, "FullDup", fault.ModelStuckAt},
	}
	if raceEnabled {
		cells = cells[:2]
	}
	for _, c := range cells {
		c := c
		t.Run(c.workload+"/"+c.mode, func(t *testing.T) {
			t.Parallel()
			w := workloads.ByName(c.workload)
			prot := protectedFor(t, w, c.mode)
			cfg := fault.DefaultConfig()
			cfg.Trials = 24
			cfg.Model = c.model

			// Every run spaces its ladder a fifth of the golden run apart:
			// four snapshots, wide bins.
			ctx := fault.WithLadderProbe(context.Background(), sparseLadder(goldenDynOf(t, w, prot), 5))
			solo, err := fault.Run(ctx, w.Target(workloads.Test), prot.Clone(), c.technique, cfg)
			if err != nil {
				t.Fatal(err)
			}
			paths := runSharded(ctx, t, w, prot, c.technique, cfg, 3)
			merged, err := fault.MergeShardJournals(paths)
			if err != nil {
				t.Fatal(err)
			}
			diffReports(t, c.workload, merged, solo)
			if merged.Workload != solo.Workload || merged.Technique != solo.Technique || merged.FaultModel != solo.FaultModel {
				t.Fatalf("identity fields differ: merged=(%q,%q,%q) solo=(%q,%q,%q)",
					merged.Workload, merged.Technique, merged.FaultModel,
					solo.Workload, solo.Technique, solo.FaultModel)
			}
		})
	}
}

// TestShardMergeWithAnomalies pins the merged Anomalies ordering against
// the single-process run when quarantined trials land in different shards.
func TestShardMergeWithAnomalies(t *testing.T) {
	w := workloads.ByName("g721dec")
	prot := protectedFor(t, w, core.SchemeOriginal)
	cfg := fault.DefaultConfig()
	cfg.Trials = 12
	// Poison two trials in different shards of the 3-way split [0,4)[4,8)[8,12).
	cfg.OnTrial = func(trial int) {
		if trial == 2 || trial == 9 {
			panic("injected shard test panic")
		}
	}

	solo, err := fault.Run(context.Background(), w.Target(workloads.Test), prot.Clone(), "Original", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(solo.Anomalies) != 2 {
		t.Fatalf("solo run quarantined %d trials, want 2", len(solo.Anomalies))
	}

	dir := t.TempDir()
	var paths []string
	for s, r := range shardRanges(cfg.Trials, 3) {
		c := cfg
		c.ShardStart, c.ShardEnd = r[0], r[1]
		c.JournalPath = filepath.Join(dir, fmt.Sprintf("shard%02d.journal", s))
		if _, err := fault.Run(context.Background(), w.Target(workloads.Test), prot.Clone(), "Original", c); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, c.JournalPath)
	}
	merged, err := fault.MergeShardJournals(paths)
	if err != nil {
		t.Fatal(err)
	}
	diffReports(t, "anomalies", merged, solo)
}

// TestShardCrashConsolidateResume replays the coordinator's reassignment
// protocol at the library level: attempt 1 of a shard is cancelled mid-run
// (a crashed worker whose lease expired), its journal is consolidated into
// a fresh attempt-2 path, attempt 2 resumes from it and finishes, and the
// final merge across shards is still bit-identical to the solo run.
func TestShardCrashConsolidateResume(t *testing.T) {
	w := workloads.ByName("tiff2bw")
	prot := protectedFor(t, w, core.SchemeDup)
	cfg := fault.DefaultConfig()
	cfg.Trials = 16
	cfg.Workers = 1 // deterministic progress before the cancel

	solo, err := fault.Run(context.Background(), w.Target(workloads.Test), prot.Clone(), "DupOnly", cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// Shard [0,10): attempt 1 dies after ~4 trials.
	a1 := filepath.Join(dir, "shard00-a1.journal")
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	c1 := cfg
	c1.ShardStart, c1.ShardEnd = 0, 10
	c1.JournalPath = a1
	c1.OnTrial = func(int) {
		if started.Add(1) == 5 {
			cancel()
		}
	}
	rep1, err := fault.Run(ctx, w.Target(workloads.Test), prot.Clone(), "DupOnly", c1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Partial {
		t.Fatal("cancelled shard attempt not Partial")
	}

	// Lease expiry: consolidate attempt 1 into the attempt-2 journal.
	a2 := filepath.Join(dir, "shard00-a2.journal")
	decided, err := fault.ConsolidateShardJournals(a2, []string{a1})
	if err != nil {
		t.Fatal(err)
	}
	if decided >= 10 {
		t.Fatalf("consolidated %d decided trials out of a cancelled 10-trial shard", decided)
	}

	// Attempt 2 resumes from the consolidation and completes the shard.
	c2 := cfg
	c2.ShardStart, c2.ShardEnd = 0, 10
	c2.JournalPath = a2
	c2.Resume = true
	rep2, err := fault.Run(context.Background(), w.Target(workloads.Test), prot.Clone(), "DupOnly", c2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Partial {
		t.Fatal("resumed shard attempt still Partial")
	}
	if rep2.Replayed != decided {
		t.Fatalf("attempt 2 replayed %d trials, consolidation held %d", rep2.Replayed, decided)
	}

	// Shard [10,16) runs uneventfully.
	b := filepath.Join(dir, "shard01-a1.journal")
	c3 := cfg
	c3.ShardStart, c3.ShardEnd = 10, 16
	c3.JournalPath = b
	if _, err := fault.Run(context.Background(), w.Target(workloads.Test), prot.Clone(), "DupOnly", c3); err != nil {
		t.Fatal(err)
	}

	// The merge reads only the latest attempt per shard, never a1.
	merged, err := fault.MergeShardJournals([]string{a2, b})
	if err != nil {
		t.Fatal(err)
	}
	diffReports(t, "crash-resume", merged, solo)
}

// TestShardRangeValidation pins the Config.ShardStart/ShardEnd contract.
func TestShardRangeValidation(t *testing.T) {
	w := workloads.ByName("tiff2bw")
	prot := protectedFor(t, w, core.SchemeOriginal)
	for _, r := range [][2]int{{-1, 4}, {0, 11}, {4, 4}, {6, 2}} {
		cfg := fault.DefaultConfig()
		cfg.Trials = 10
		cfg.ShardStart, cfg.ShardEnd = r[0], r[1]
		if _, err := fault.Run(context.Background(), w.Target(workloads.Test), prot.Clone(), "Original", cfg); err == nil {
			t.Errorf("shard range [%d,%d) over 10 trials accepted", r[0], r[1])
		}
	}
}
