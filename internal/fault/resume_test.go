package fault_test

// Resume-equivalence suite: a journaled campaign interrupted at an
// arbitrary byte offset and resumed must produce a Report bit-identical to
// an uninterrupted run — across every workload and protection mode. The
// truncation point is derived deterministically per cell so the matrix
// collectively covers header cuts (resume restarts from scratch), mid- and
// between-record cuts (resume replays a prefix), and no cut at all (resume
// replays everything). This is the acceptance gate for the journal.

import (
	"context"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workloads"
)

func TestCampaignResumeEquivalence(t *testing.T) {
	modes := core.SchemeNames()
	names := make([]string, 0, 13)
	for _, w := range workloads.All() {
		names = append(names, w.Name)
	}
	if raceEnabled {
		names = []string{"tiff2bw", "g721dec", "svm", "kmeans"}
		modes = []string{core.SchemeOriginal, core.SchemeDupVal}
	}
	for _, name := range names {
		for _, mode := range modes {
			name, mode := name, mode
			t.Run(name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				w := workloads.ByName(name)
				prot := protectedFor(t, w, mode)
				path := filepath.Join(t.TempDir(), "campaign.journal")

				run := func(resume bool) *fault.Report {
					cfg := fault.DefaultConfig()
					cfg.Trials = 12
					cfg.JournalPath = path
					cfg.Resume = resume
					rep, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, mode, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return rep
				}

				full := run(false)

				// Deterministic per-cell cut in [0, size]: the matrix as a
				// whole exercises header cuts, record cuts, and the no-cut
				// (journal already complete) resume.
				info, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				h.Write([]byte(name + "/" + mode))
				cut := int64(h.Sum64() % uint64(info.Size()+1))
				if err := os.Truncate(path, cut); err != nil {
					t.Fatal(err)
				}
				t.Logf("journal %d bytes, resuming from %d", info.Size(), cut)

				resumed := run(true)
				diffReports(t, "resumed-vs-full", resumed, full)
				if resumed.Partial || full.Partial {
					t.Fatal("complete campaigns marked partial")
				}
				if len(resumed.Anomalies)+len(full.Anomalies) != 0 {
					t.Fatalf("unexpected anomalies: %+v / %+v", resumed.Anomalies, full.Anomalies)
				}
			})
		}
	}
}

// TestResumeCompletedCampaignRunsNothing resumes an intact journal of a
// finished campaign: every trial must replay from the journal and zero
// trials may execute.
func TestResumeCompletedCampaignRunsNothing(t *testing.T) {
	w := workloads.ByName("kmeans")
	prot := protectedFor(t, w, core.SchemeOriginal)
	path := filepath.Join(t.TempDir(), "campaign.journal")

	cfg := fault.DefaultConfig()
	cfg.Trials = 10
	cfg.JournalPath = path
	full, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, "Original", cfg)
	if err != nil {
		t.Fatal(err)
	}

	var executed atomic.Int64
	cfg.Resume = true
	cfg.OnTrial = func(int) { executed.Add(1) }
	resumed, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, "Original", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := executed.Load(); n != 0 {
		t.Fatalf("resume of a complete journal executed %d trials", n)
	}
	if resumed.Replayed != cfg.Trials {
		t.Fatalf("Replayed = %d, want %d", resumed.Replayed, cfg.Trials)
	}
	diffReports(t, "replayed-vs-full", resumed, full)
}

// TestResumeReplaysQuarantinedTrials checks anomalies are durable: a
// journaled panic quarantine survives resume without re-running the
// poisoned trial.
func TestResumeReplaysQuarantinedTrials(t *testing.T) {
	const poisoned = 2
	w := workloads.ByName("tiff2bw")
	prot := protectedFor(t, w, core.SchemeOriginal)
	path := filepath.Join(t.TempDir(), "campaign.journal")

	cfg := fault.DefaultConfig()
	cfg.Trials = 6
	cfg.JournalPath = path
	cfg.OnTrial = func(trial int) {
		if trial == poisoned {
			panic("poisoned trial")
		}
	}
	first, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, "Original", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Anomalies) != 1 {
		t.Fatalf("anomalies = %+v", first.Anomalies)
	}

	cfg.Resume = true
	cfg.OnTrial = func(trial int) {
		if trial == poisoned {
			t.Errorf("quarantined trial %d re-executed on resume", trial)
		}
	}
	resumed, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, "Original", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Anomalies) != 1 {
		t.Fatalf("anomaly lost on resume: %+v", resumed.Anomalies)
	}
	a, b := first.Anomalies[0], resumed.Anomalies[0]
	if a.Trial != b.Trial || a.Seed != b.Seed || a.Reason != b.Reason || a.Stack != b.Stack {
		t.Fatalf("anomaly not durable:\nfirst=%+v\nresumed=%+v", a, b)
	}
	if resumed.Tally != first.Tally {
		t.Fatalf("tallies differ: %+v != %+v", resumed.Tally, first.Tally)
	}
}

// TestResumeRejectsForeignJournal: resuming under a different
// result-affecting configuration must fail loudly, not silently blend two
// campaigns.
func TestResumeRejectsForeignJournal(t *testing.T) {
	w := workloads.ByName("kmeans")
	prot := protectedFor(t, w, core.SchemeOriginal)
	path := filepath.Join(t.TempDir(), "campaign.journal")

	cfg := fault.DefaultConfig()
	cfg.Trials = 4
	cfg.JournalPath = path
	if _, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, "Original", cfg); err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	cfg.Seed++
	if _, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, "Original", cfg); err == nil {
		t.Fatal("foreign journal (different seed) accepted on resume")
	}
}

// TestResumeMissingJournalStartsFresh: -resume against a journal that does
// not exist yet is a fresh start, not an error (first run of a durable
// campaign script).
func TestResumeMissingJournalStartsFresh(t *testing.T) {
	w := workloads.ByName("tiff2bw")
	prot := protectedFor(t, w, core.SchemeOriginal)
	path := filepath.Join(t.TempDir(), "campaign.journal")

	cfg := fault.DefaultConfig()
	cfg.Trials = 5
	cfg.JournalPath = path
	cfg.Resume = true
	rep, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, "Original", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 0 || rep.Tally.N != cfg.Trials {
		t.Fatalf("fresh resume: Replayed=%d N=%d", rep.Replayed, rep.Tally.N)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("journal not created: %v", err)
	}
}

// progressProbe keeps the OnProgress triple with the largest done count:
// calls from concurrent workers may arrive out of order.
type progressProbe struct {
	mu                  sync.Mutex
	done, covered, usdc int
}

func (p *progressProbe) on(done, covered, usdc int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if done > p.done {
		p.done, p.covered, p.usdc = done, covered, usdc
	}
}

// matches checks the last progress report against the Report's Tally:
// progress and the Report count the same decided trials.
func (p *progressProbe) matches(t *testing.T, rep *fault.Report) {
	t.Helper()
	ta := rep.Tally
	covered := ta.Count[fault.Masked] + ta.Count[fault.HWDetect] + ta.Count[fault.SWDetect]
	if p.done != ta.N || p.covered != covered || p.usdc != ta.Count[fault.USDC] {
		t.Fatalf("last progress (%d, %d, %d), Report (%d, %d, %d)",
			p.done, p.covered, p.usdc, ta.N, covered, ta.Count[fault.USDC])
	}
}

// TestLastProgressMatchesReport: OnProgress and the Report read one running
// Tally, so the last progress triple is the Report's, whether trials were
// replayed from a journal or a TargetCI stop left some unrun.
func TestLastProgressMatchesReport(t *testing.T) {
	w := workloads.ByName("kmeans")
	prot := protectedFor(t, w, core.SchemeDupVal)
	tgt := w.Target(workloads.Test)

	t.Run("resumed", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "campaign.journal")
		cfg := fault.DefaultConfig()
		cfg.Trials = 40
		cfg.JournalPath = path
		if _, err := fault.Run(context.Background(), tgt, prot, core.SchemeDupVal, cfg); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()/2); err != nil {
			t.Fatal(err)
		}
		var p progressProbe
		cfg.Resume = true
		cfg.Workers = 2
		cfg.OnProgress = p.on
		rep, err := fault.Run(context.Background(), tgt, prot, core.SchemeDupVal, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Replayed == 0 || rep.Replayed == cfg.Trials {
			t.Fatalf("premise: replayed %d of %d trials", rep.Replayed, cfg.Trials)
		}
		p.matches(t, rep)
	})

	t.Run("early-stopped", func(t *testing.T) {
		var p progressProbe
		cfg := fault.DefaultConfig()
		cfg.Trials = 400
		cfg.Workers = 2
		cfg.TargetCI = 0.3
		cfg.OnProgress = p.on
		rep, err := fault.Run(context.Background(), tgt, prot, core.SchemeDupVal, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.EarlyStopped {
			t.Fatalf("premise: campaign did not stop early (N=%d)", rep.Tally.N)
		}
		p.matches(t, rep)
	})
}

// TestCheckpointJournalReplay journals a checkpointed campaign and a reset
// one, then replays each journal under the other positioning: the records
// a cursor-positioned campaign writes must reconstruct the identical Report
// the reset path produces, and vice versa — the journal header excludes
// throughput knobs, so either journal resumes under either knob setting.
func TestCheckpointJournalReplay(t *testing.T) {
	t.Parallel()
	w := workloads.ByName("tiff2bw")
	prot := protectedFor(t, w, core.SchemeDupVal)
	dir := t.TempDir()
	run := func(ckpt int, journal string, resume bool) *fault.Report {
		cfg := fault.DefaultConfig()
		cfg.Trials = 24
		cfg.Checkpoints = ckpt
		cfg.JournalPath = journal
		cfg.Resume = resume
		rep, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, "DupVal", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	ckptPath := filepath.Join(dir, "checkpointed.journal")
	resetPath := filepath.Join(dir, "reset.journal")
	ckpt, reset := run(0, ckptPath, false), run(-1, resetPath, false)
	diffReports(t, "journaled", ckpt, reset)
	for _, c := range []struct {
		label   string
		ckpt    int
		journal string
	}{
		{"replayed-under-reset", -1, ckptPath},
		{"replayed-under-cursor", 0, resetPath},
	} {
		// Every trial is decided, so the replay executes nothing.
		rep := run(c.ckpt, c.journal, true)
		if rep.Replayed != len(rep.Trials) {
			t.Fatalf("%s: replayed %d of %d trials", c.label, rep.Replayed, len(rep.Trials))
		}
		diffReports(t, c.label, rep, reset)
	}
}

// TestFusionJournalResume resumes a fused campaign's journal, truncated
// halfway, with fusion off: the journal must not record (and resume must
// not depend on) the knob, so replayed and re-run trials stitch into the
// same Report.
func TestFusionJournalResume(t *testing.T) {
	t.Parallel()
	w := workloads.ByName("tiff2bw")
	prot := protectedFor(t, w, core.SchemeOriginal)
	path := filepath.Join(t.TempDir(), "campaign.journal")
	run := func(fuse int, resume bool) *fault.Report {
		cfg := fault.DefaultConfig()
		cfg.Trials = 12
		cfg.Fuse = fuse
		cfg.JournalPath = path
		cfg.Resume = resume
		rep, err := fault.Run(context.Background(), w.Target(workloads.Test), prot, "Original", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	full := run(0, false)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	diffReports(t, "journal", run(-1, true), full)
}
