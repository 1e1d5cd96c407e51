package fault

// White-box journal tests: record round-tripping, damage-tolerant replay,
// and header identity checking — the pieces resume correctness rests on.

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
)

func testHeader() *journalHeader {
	return &journalHeader{
		Version:         journalVersion,
		Workload:        "w",
		Technique:       "Original",
		Trials:          8,
		Seed:            2014,
		SymptomWindow:   1000,
		WatchdogFactor:  20,
		LargeChangeBits: math.Float64bits(1.0),
		GoldenDyn:       12345,
		GoldenCycles:    23456,
		ShardStart:      0,
		ShardEnd:        8,
		Disabled:        0,
	}
}

// journalBytes renders a header plus records into one journal image.
func journalBytes(t *testing.T, recs ...*journalRecord) []byte {
	t.Helper()
	var buf []byte
	for _, rec := range recs {
		line, err := encodeLine(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, line...)
	}
	return buf
}

func TestJournalTrialRoundTrip(t *testing.T) {
	// NaN payloads and negative zero must survive: fidelity values come
	// from arbitrary Measure callbacks.
	trials := []Trial{
		{},
		{Outcome: SWDetect, CheckKind: ir.CheckDup, TrapKind: vm.TrapCheck},
		{Outcome: USDC, SDC: true, Fidelity: math.Float64frombits(0x7ff8_dead_beef_0001), RelChange: math.Copysign(0, -1)},
		{Outcome: Masked, SDC: true, Acceptable: true, Fidelity: 0.987654321, RelChange: 42.5},
	}
	for i, tr := range trials {
		jt := encodeTrial(i, tr)
		if jt.Index != i {
			t.Fatalf("index %d != %d", jt.Index, i)
		}
		got := decodeTrial(jt)
		if math.Float64bits(got.Fidelity) != math.Float64bits(tr.Fidelity) ||
			math.Float64bits(got.RelChange) != math.Float64bits(tr.RelChange) {
			t.Fatalf("trial %d floats not bit-exact: %+v != %+v", i, got, tr)
		}
		// Floats were compared bitwise above; zero them for the struct
		// comparison (NaN breaks ==).
		got.Fidelity, got.RelChange = 0, 0
		want := tr
		want.Fidelity, want.RelChange = 0, 0
		if got != want {
			t.Fatalf("trial %d round-trip: %+v != %+v", i, got, want)
		}
	}
}

func TestJournalReplayStopsAtCorruption(t *testing.T) {
	hdr := testHeader()
	buf := journalBytes(t,
		&journalRecord{H: hdr},
		&journalRecord{T: encodeTrial(0, Trial{Outcome: Masked})},
		&journalRecord{T: encodeTrial(1, Trial{Outcome: Failure})},
		&journalRecord{T: encodeTrial(2, Trial{Outcome: USDC, SDC: true})},
	)
	// Flip one payload byte in the third record: its checksum no longer
	// matches, so replay must keep exactly the first two trials.
	lines := strings.SplitAfter(string(buf), "\n")
	corrupted := []byte(lines[0] + lines[1] + lines[2])
	wantValid := int64(len(corrupted))
	bad := []byte(lines[3])
	bad[15] ^= 0x01
	corrupted = append(corrupted, bad...)

	st := replayJournal(strings.NewReader(string(corrupted)))
	if st.header == nil {
		t.Fatal("header lost")
	}
	if len(st.trials) != 2 {
		t.Fatalf("recovered %d trials, want 2", len(st.trials))
	}
	if st.valid != wantValid {
		t.Fatalf("valid prefix %d bytes, want %d", st.valid, wantValid)
	}
}

func TestJournalReplayTornTail(t *testing.T) {
	hdr := testHeader()
	buf := journalBytes(t,
		&journalRecord{H: hdr},
		&journalRecord{T: encodeTrial(0, Trial{Outcome: Masked})},
		&journalRecord{A: &journalAnomaly{Index: 3, Seed: 99, Reason: AnomalyPanic, Stack: "stack"}},
		&journalRecord{T: encodeTrial(1, Trial{Outcome: Failure})},
	)
	// Cut mid-way through the last record, as a crash during a write would.
	cut := len(buf) - 7
	st := replayJournal(strings.NewReader(string(buf[:cut])))
	if len(st.trials) != 1 || len(st.anomalies) != 1 {
		t.Fatalf("recovered %d trials, %d anomalies; want 1, 1", len(st.trials), len(st.anomalies))
	}
	if a := st.anomalies[3]; a.Seed != 99 || a.Reason != AnomalyPanic || a.Stack != "stack" {
		t.Fatalf("anomaly mangled: %+v", a)
	}
	if int(st.valid) >= cut {
		t.Fatalf("valid prefix %d includes torn bytes (cut %d)", st.valid, cut)
	}
}

func TestJournalReplayHeaderless(t *testing.T) {
	// Records before a header (e.g. a crash tore the header write itself)
	// recover nothing: a headerless journal is a fresh start.
	buf := journalBytes(t, &journalRecord{T: encodeTrial(0, Trial{})})
	st := replayJournal(strings.NewReader(string(buf)))
	if st.header != nil || len(st.trials) != 0 || st.valid != 0 {
		t.Fatalf("headerless journal recovered state: %+v", st)
	}
}

func TestJournalReplayRejectsOutOfRangeIndex(t *testing.T) {
	hdr := testHeader() // Trials: 8
	buf := journalBytes(t,
		&journalRecord{H: hdr},
		&journalRecord{T: encodeTrial(8, Trial{})}, // one past the end
	)
	st := replayJournal(strings.NewReader(string(buf)))
	if len(st.trials) != 0 {
		t.Fatal("out-of-range trial index accepted")
	}
}

func TestOpenJournalRejectsMismatchedHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	hdr := testHeader()
	if err := os.WriteFile(path, journalBytes(t, &journalRecord{H: hdr}), 0o644); err != nil {
		t.Fatal(err)
	}
	other := testHeader()
	other.Seed = 7
	if _, _, err := openJournal(path, true, other); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("mismatched header accepted: %v", err)
	}
	// Same identity must be accepted and position the writer past the header.
	jw, st, err := openJournal(path, true, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer jw.close()
	if st == nil || st.header == nil {
		t.Fatal("matching journal not replayed")
	}
}

func TestOpenJournalResumeTruncatesDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	hdr := testHeader()
	intact := journalBytes(t,
		&journalRecord{H: hdr},
		&journalRecord{T: encodeTrial(0, Trial{Outcome: Masked})},
	)
	damaged := append(append([]byte{}, intact...), "garbage tail"...)
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	jw, st, err := openJournal(path, true, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || len(st.trials) != 1 {
		t.Fatalf("replay state: %+v", st)
	}
	// Append one record and close: the file must now replay cleanly to two
	// trials, with the garbage gone.
	if err := jw.append(&journalRecord{T: encodeTrial(1, Trial{Outcome: Failure})}); err != nil {
		t.Fatal(err)
	}
	if err := jw.close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st2 := replayJournal(f)
	if len(st2.trials) != 2 {
		t.Fatalf("after resume-append: recovered %d trials, want 2", len(st2.trials))
	}
}

func TestJournalWriterBatchDurability(t *testing.T) {
	// The writer's contract: records become durable in batches of
	// journalFlushBatch (flush + fsync), so a kill at any point forfeits
	// at most one in-flight batch. Observed through the file itself: no
	// bytes land before the batch fills, the whole batch lands when it
	// does, and close drains the remainder.
	path := filepath.Join(t.TempDir(), "j.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := newJournalWriter(f)
	hdr := testHeader()
	hdr.Trials = journalFlushBatch + 8
	hdr.ShardEnd = hdr.Trials

	replayFile := func() *journalState {
		t.Helper()
		rf, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer rf.Close()
		return replayJournal(rf)
	}
	size := func() int64 {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	// Header plus batch-2 trials: one short of a full batch, nothing on disk.
	if err := w.append(&journalRecord{H: hdr}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < journalFlushBatch-2; i++ {
		if err := w.append(&journalRecord{T: encodeTrial(i, Trial{Outcome: Masked})}); err != nil {
			t.Fatal(err)
		}
	}
	if n := size(); n != 0 {
		t.Fatalf("%d bytes on disk before the batch filled", n)
	}
	// One more record completes the batch: everything buffered lands at once.
	if err := w.append(&journalRecord{T: encodeTrial(journalFlushBatch-2, Trial{Outcome: Masked})}); err != nil {
		t.Fatal(err)
	}
	if st := replayFile(); st.header == nil || len(st.trials) != journalFlushBatch-1 {
		t.Fatalf("after batch flush: %d trials on disk, want %d", len(st.trials), journalFlushBatch-1)
	}
	// The next record starts a new batch and stays buffered...
	if err := w.append(&journalRecord{T: encodeTrial(journalFlushBatch-1, Trial{Outcome: Failure})}); err != nil {
		t.Fatal(err)
	}
	if st := replayFile(); len(st.trials) != journalFlushBatch-1 {
		t.Fatalf("partial batch leaked to disk: %d trials", len(st.trials))
	}
	// ...until close drains it.
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if st := replayFile(); len(st.trials) != journalFlushBatch {
		t.Fatalf("after close: %d trials on disk, want %d", len(st.trials), journalFlushBatch)
	}
}

func TestWilsonProperties(t *testing.T) {
	// Properties the campaign's early-stop logic relies on, over a grid of
	// (successes, n): the interval is inside [0,1], contains the point
	// estimate k/n, and narrows when the sample grows at the same
	// proportion (so a tightness target, once reached, stays reached).
	for n := 1; n <= 500; n = n*3 + 1 {
		step := n / 7
		if step == 0 {
			step = 1
		}
		for k := 0; k <= n; k += step {
			lo, hi := Wilson(k, n, z95)
			if lo < 0 || hi > 1 || lo >= hi {
				t.Fatalf("Wilson(%d,%d): degenerate interval [%v,%v]", k, n, lo, hi)
			}
			p := float64(k) / float64(n)
			if p < lo-1e-12 || p > hi+1e-12 {
				t.Fatalf("Wilson(%d,%d): point estimate %v outside [%v,%v]", k, n, p, lo, hi)
			}
			lo4, hi4 := Wilson(4*k, 4*n, z95)
			if hi4-lo4 >= hi-lo {
				t.Fatalf("Wilson(%d,%d) width %v did not shrink at 4x the sample (%v)",
					k, n, hi-lo, hi4-lo4)
			}
		}
	}
}

func TestWilsonInterval(t *testing.T) {
	// n = 0 is vacuous.
	if lo, hi := Wilson(0, 0, z95); lo != 0 || hi != 1 {
		t.Fatalf("n=0: [%v,%v]", lo, hi)
	}
	// Agresti-style reference point: 50/100 at 95% gives roughly [0.40, 0.60].
	lo, hi := Wilson(50, 100, z95)
	if lo < 0.39 || lo > 0.41 || hi < 0.59 || hi > 0.61 {
		t.Fatalf("50/100: [%v,%v], want ~[0.40,0.60]", lo, hi)
	}
	// Extremes stay clamped in [0,1] and nondegenerate.
	lo, hi = Wilson(0, 10, z95)
	if lo != 0 || hi <= 0 || hi >= 1 {
		t.Fatalf("0/10: [%v,%v]", lo, hi)
	}
	lo, hi = Wilson(10, 10, z95)
	if hi != 1 || lo <= 0 || lo >= 1 {
		t.Fatalf("10/10: [%v,%v]", lo, hi)
	}
	// Interval width shrinks with n.
	if !CITight(50, 1000, 0.07) || CITight(5, 10, 0.07) {
		t.Fatal("CITight not monotone in n")
	}
}
