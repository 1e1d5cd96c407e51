package fault

// White-box shard-merge tests: header compatibility, record folding,
// conflict detection, and consolidation — the pieces the distributed
// coordinator's correctness rests on. The end-to-end equivalence of a
// sharded campaign against the single-process path lives in
// shard_equiv_test.go.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shardHeader derives a shard-range variant of testHeader().
func shardHeader(lo, hi int) *journalHeader {
	h := testHeader()
	h.ShardStart, h.ShardEnd = lo, hi
	return h
}

// writeJournal materializes records to a file.
func writeJournal(t *testing.T, path string, recs ...*journalRecord) {
	t.Helper()
	if err := os.WriteFile(path, journalBytes(t, recs...), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestMergeShardJournalsFoldsDisjointShards(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.journal")
	b := filepath.Join(dir, "b.journal")
	writeJournal(t, a,
		&journalRecord{H: shardHeader(0, 4)},
		&journalRecord{T: encodeTrial(0, Trial{Outcome: Masked})},
		&journalRecord{T: encodeTrial(1, Trial{Outcome: USDC, SDC: true})},
		&journalRecord{T: encodeTrial(3, Trial{Outcome: Failure})},
		&journalRecord{A: &journalAnomaly{Index: 2, Seed: 77, Reason: AnomalyTimeout}},
	)
	writeJournal(t, b,
		&journalRecord{H: shardHeader(4, 8)},
		&journalRecord{T: encodeTrial(4, Trial{Outcome: Masked})},
		&journalRecord{T: encodeTrial(5, Trial{Outcome: SWDetect})},
		&journalRecord{T: encodeTrial(6, Trial{Outcome: Masked})},
		&journalRecord{T: encodeTrial(7, Trial{Outcome: HWDetect})},
	)
	rep, err := MergeShardJournals([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("fully-decided merge marked Partial")
	}
	if rep.Tally.N != 7 {
		t.Fatalf("Tally.N = %d, want 7 (8 trials, 1 quarantined)", rep.Tally.N)
	}
	if got := rep.Tally.Count[Masked]; got != 3 {
		t.Fatalf("Masked = %d, want 3", got)
	}
	if len(rep.Anomalies) != 1 || rep.Anomalies[0].Trial != 2 || rep.Anomalies[0].Seed != 77 {
		t.Fatalf("anomalies = %+v", rep.Anomalies)
	}
	if rep.Workload != "w" || rep.GoldenDyn != 12345 || rep.GoldenCycles != 23456 {
		t.Fatalf("header fields lost: %+v", rep)
	}
}

func TestMergeShardJournalsMissingTrialsArePartial(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.journal")
	writeJournal(t, a,
		&journalRecord{H: shardHeader(0, 4)},
		&journalRecord{T: encodeTrial(0, Trial{Outcome: Masked})},
		&journalRecord{T: encodeTrial(1, Trial{Outcome: Masked})},
	)
	rep, err := MergeShardJournals([]string{a})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Fatal("merge missing 6 of 8 trials not marked Partial")
	}
	if rep.Tally.N != 2 {
		t.Fatalf("Tally.N = %d, want 2", rep.Tally.N)
	}
}

func TestMergeShardJournalsDetectsConflicts(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.journal")
	b := filepath.Join(dir, "b.journal")

	// Same trial, different outcome: determinism violation.
	writeJournal(t, a,
		&journalRecord{H: shardHeader(0, 4)},
		&journalRecord{T: encodeTrial(1, Trial{Outcome: Masked})},
	)
	writeJournal(t, b,
		&journalRecord{H: shardHeader(0, 4)},
		&journalRecord{T: encodeTrial(1, Trial{Outcome: USDC, SDC: true})},
	)
	if _, err := MergeShardJournals([]string{a, b}); err == nil || !strings.Contains(err.Error(), "disagree on trial 1") {
		t.Fatalf("conflicting trial accepted: %v", err)
	}

	// Decided in one journal, quarantined in the other.
	writeJournal(t, b,
		&journalRecord{H: shardHeader(0, 4)},
		&journalRecord{A: &journalAnomaly{Index: 1, Seed: 9, Reason: AnomalyPanic}},
	)
	if _, err := MergeShardJournals([]string{a, b}); err == nil || !strings.Contains(err.Error(), "quarantined in one") {
		t.Fatalf("decided/quarantined conflict accepted: %v", err)
	}

	// Identical decisions in overlapping journals merge fine (an attempt
	// journal and its consolidation overlap by construction).
	writeJournal(t, b,
		&journalRecord{H: shardHeader(0, 4)},
		&journalRecord{T: encodeTrial(1, Trial{Outcome: Masked})},
		&journalRecord{T: encodeTrial(2, Trial{Outcome: Failure})},
	)
	rep, err := MergeShardJournals([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tally.N != 2 {
		t.Fatalf("Tally.N = %d, want 2", rep.Tally.N)
	}
}

func TestMergeShardJournalsRejectsMixedCampaigns(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.journal")
	b := filepath.Join(dir, "b.journal")
	writeJournal(t, a, &journalRecord{H: shardHeader(0, 4)})
	other := shardHeader(4, 8)
	other.Seed = 999
	writeJournal(t, b, &journalRecord{H: other})
	if _, err := MergeShardJournals([]string{a, b}); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("mixed-campaign merge accepted: %v", err)
	}
}

func TestMergeShardJournalsHeaderless(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.journal")
	// A crash before the first batch leaves an empty (or garbage) file: it
	// contributes nothing, and a merge of only such files has no identity.
	if err := os.WriteFile(a, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShardJournals([]string{a}); err == nil || !strings.Contains(err.Error(), "no intact journal header") {
		t.Fatalf("headerless merge: %v", err)
	}
	b := filepath.Join(dir, "b.journal")
	writeJournal(t, b,
		&journalRecord{H: shardHeader(0, 8)},
		&journalRecord{T: encodeTrial(0, Trial{Outcome: Masked})},
	)
	rep, err := MergeShardJournals([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tally.N != 1 {
		t.Fatalf("Tally.N = %d, want 1", rep.Tally.N)
	}
}

func TestConsolidateShardJournals(t *testing.T) {
	dir := t.TempDir()
	a1 := filepath.Join(dir, "a1.journal")
	a2 := filepath.Join(dir, "a2.journal")
	dst := filepath.Join(dir, "a3.journal")

	// Attempt 1 decided trials 0 and 1 before dying; its tail is torn.
	buf := journalBytes(t,
		&journalRecord{H: shardHeader(0, 4)},
		&journalRecord{T: encodeTrial(0, Trial{Outcome: Masked})},
		&journalRecord{T: encodeTrial(1, Trial{Outcome: Failure})},
	)
	buf = append(buf, "torn half-rec"...)
	if err := os.WriteFile(a1, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	// Attempt 2 (resumed from a consolidation of attempt 1) re-holds trial 1
	// and added trial 2.
	writeJournal(t, a2,
		&journalRecord{H: shardHeader(0, 4)},
		&journalRecord{T: encodeTrial(1, Trial{Outcome: Failure})},
		&journalRecord{T: encodeTrial(2, Trial{Outcome: Masked})},
	)

	decided, err := ConsolidateShardJournals(dst, []string{a1, a2})
	if err != nil {
		t.Fatal(err)
	}
	if decided != 3 {
		t.Fatalf("decided = %d, want 3", decided)
	}
	f, err := os.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	st := replayJournal(f)
	f.Close()
	if st.header == nil || len(st.trials) != 3 {
		t.Fatalf("consolidated journal replays %d trials, want 3", len(st.trials))
	}
	if d := st.header.mismatch(shardHeader(0, 4)); d != "" {
		t.Fatalf("consolidated header drifted: %s", d)
	}

	// Different shard ranges must not consolidate.
	b := filepath.Join(dir, "b.journal")
	writeJournal(t, b, &journalRecord{H: shardHeader(4, 8)})
	if _, err := ConsolidateShardJournals(dst, []string{a1, b}); err == nil || !strings.Contains(err.Error(), "different shards") {
		t.Fatalf("cross-shard consolidation accepted: %v", err)
	}
}

func TestConsolidateShardJournalsNothingToDo(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "next.journal")
	// A stale dst from a crashed previous consolidation must be cleared so
	// the next attempt starts the shard fresh.
	writeJournal(t, dst, &journalRecord{H: shardHeader(0, 4)})
	missing := filepath.Join(dir, "never-written.journal")
	empty := filepath.Join(dir, "empty.journal")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	decided, err := ConsolidateShardJournals(dst, []string{missing, empty})
	if err != nil {
		t.Fatal(err)
	}
	if decided != 0 {
		t.Fatalf("decided = %d, want 0", decided)
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatalf("stale consolidation target not removed: %v", err)
	}
}

// TestResumeRejectsDecidedAndQuarantinedTrial: a resumed journal goes
// through the same fold as a merge, so a trial the journal records both as
// decided and as quarantined is corruption, not a trial to keep twice.
func TestResumeRejectsDecidedAndQuarantinedTrial(t *testing.T) {
	tgt, prot, _ := protectOn(t, constInput(5), constInput(5))
	tgt.Measure = func(golden, test []uint64) float64 { return 0 }
	tgt.Acceptable = func(float64) bool { return false }
	path := filepath.Join(t.TempDir(), "campaign.journal")
	cfg := DefaultConfig()
	cfg.Trials = 4
	cfg.JournalPath = path
	rep, err := Run(context.Background(), tgt, prot, "DupVal", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tally.N != cfg.Trials {
		t.Fatalf("premise: %d of %d trials decided", rep.Tally.N, cfg.Trials)
	}
	line, err := encodeLine(&journalRecord{A: encodeAnomaly(Anomaly{Trial: 1, Seed: seedFor(cfg, 1), Reason: AnomalyPanic})})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(line); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg.Resume = true
	if _, err := Run(context.Background(), tgt, prot, "DupVal", cfg); err == nil || !strings.Contains(err.Error(), "quarantined in one") {
		t.Fatalf("resume kept a trial both decided and quarantined: %v", err)
	}
}
