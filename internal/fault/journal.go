package fault

// Durable campaign journaling. A journal is an append-only, line-oriented,
// checksummed log of everything a campaign has decided: one header record
// naming the campaign (and fingerprinting every config knob that affects
// results), then one record per completed trial and one per quarantined
// anomaly, in completion order. Workers append through a batched writer, so
// a crash — panic, OOM kill, SIGKILL, power loss — forfeits at most one
// unflushed batch; replay tolerates arbitrary tail damage (a torn line, a
// half-written record, a bad checksum) by stopping at the first invalid
// byte, and resume truncates the damage away before appending. Because
// every trial draws its randomness from a self-contained per-trial seed,
// replayed records splice into a resumed campaign bit-identically: a
// killed-and-resumed campaign's final Report equals an uninterrupted one.
//
// Line format: "<crc32-ieee-hex8> <json>\n". The checksum covers the JSON
// payload only. Floats are stored as IEEE-754 bit patterns so records
// round-trip exactly.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strconv"
	"sync"

	"repro/internal/ir"
	"repro/internal/vm"
)

// journalVersion gates replay: a journal written by an incompatible record
// schema is rejected rather than misread. Version 2 replaced the numeric
// fault-kind field with the registry model name; version 3 added the shard
// range and the disabled-check count, making a journal a self-describing
// shard artifact the distributed campaign service can merge.
const journalVersion = 3

// journalFlushBatch bounds how many records the batched writer buffers
// before forcing them to the OS; a crash loses at most this many trials.
const journalFlushBatch = 32

// journalHeader is the first record of every journal. Every field that can
// change campaign results is part of the identity check on resume; knobs
// that only move throughput (Workers, Checkpoints, Fuse, Converge, Engine —
// the engines and trial positionings are bit-identical by contract) are
// deliberately absent, so a campaign may be resumed with different
// parallelism, snapshotting, or dispatch and still complete
// bit-identically. GoldenDyn/GoldenCycles double as a drift detector: if
// the module or inputs changed since the journal was written, the re-run
// golden run disagrees and resume refuses.
type journalHeader struct {
	Version         int    `json:"v"`
	Workload        string `json:"workload"`
	Technique       string `json:"technique"`
	Trials          int    `json:"trials"`
	Seed            int64  `json:"seed"`
	Model           string `json:"model"`
	SymptomWindow   int64  `json:"window"`
	WatchdogFactor  int64  `json:"watchdog"`
	LargeChangeBits uint64 `json:"large"`
	GoldenDyn       int64  `json:"golden_dyn"`
	GoldenCycles    int64  `json:"golden_cycles"`
	// ShardStart/ShardEnd describe the trial subrange this journal covers
	// ([0, Trials) for an unsharded campaign). Trials stays the campaign
	// total, so record indices are absolute and shard journals from one
	// campaign merge without renumbering.
	ShardStart int `json:"shard_lo"`
	ShardEnd   int `json:"shard_hi"`
	// Disabled is the golden run's squelched-check count. It is implied by
	// the module and inputs (GoldenDyn/GoldenCycles already pin those), and
	// recording it lets a merge reconstruct the full Report without a
	// golden re-run.
	Disabled int `json:"disabled"`
}

// journalTrial is one completed trial. Fidelity and RelChange are bit
// patterns (math.Float64bits) so the record round-trips exactly.
type journalTrial struct {
	Index         int    `json:"i"`
	Outcome       uint8  `json:"o"`
	CheckKind     uint8  `json:"c,omitempty"`
	SDC           bool   `json:"s,omitempty"`
	Acceptable    bool   `json:"a,omitempty"`
	FidelityBits  uint64 `json:"f,omitempty"`
	RelChangeBits uint64 `json:"r,omitempty"`
	TrapKind      uint8  `json:"t,omitempty"`
}

// journalAnomaly is one quarantined trial: the reproducer seed is the exact
// value to feed a single-trial campaign to replay the panic or hang.
type journalAnomaly struct {
	Index  int    `json:"i"`
	Seed   int64  `json:"seed"`
	Reason string `json:"reason"`
	Stack  string `json:"stack,omitempty"`
}

// journalRecord is the union envelope; exactly one field is set per line.
type journalRecord struct {
	H *journalHeader  `json:"h,omitempty"`
	T *journalTrial   `json:"t,omitempty"`
	A *journalAnomaly `json:"a,omitempty"`
}

func encodeTrial(i int, tr Trial) *journalTrial {
	return &journalTrial{
		Index:         i,
		Outcome:       uint8(tr.Outcome),
		CheckKind:     uint8(tr.CheckKind),
		SDC:           tr.SDC,
		Acceptable:    tr.Acceptable,
		FidelityBits:  math.Float64bits(tr.Fidelity),
		RelChangeBits: math.Float64bits(tr.RelChange),
		TrapKind:      uint8(tr.TrapKind),
	}
}

func encodeAnomaly(a Anomaly) *journalAnomaly {
	return &journalAnomaly{Index: a.Trial, Seed: a.Seed, Reason: a.Reason, Stack: a.Stack}
}

func decodeTrial(jt *journalTrial) Trial {
	return Trial{
		Outcome:    Outcome(jt.Outcome),
		CheckKind:  ir.CheckKind(jt.CheckKind),
		SDC:        jt.SDC,
		Acceptable: jt.Acceptable,
		Fidelity:   math.Float64frombits(jt.FidelityBits),
		RelChange:  math.Float64frombits(jt.RelChangeBits),
		TrapKind:   vm.TrapKind(jt.TrapKind),
	}
}

// headerFor builds the identity record for a campaign over one golden run.
// model is the resolved registry name, so a default-model ("") campaign and
// an explicit "reg-flip" one share an identity. lo/hi is the resolved shard
// range and disabled the golden run's squelched-check count.
func headerFor(t Target, technique string, cfg Config, model string, lo, hi, disabled int, goldenDyn, goldenCycles int64) *journalHeader {
	return &journalHeader{
		Version:         journalVersion,
		Workload:        t.Name,
		Technique:       technique,
		Trials:          cfg.Trials,
		Seed:            cfg.Seed,
		Model:           model,
		SymptomWindow:   cfg.SymptomWindow,
		WatchdogFactor:  cfg.WatchdogFactor,
		LargeChangeBits: math.Float64bits(cfg.LargeChange),
		GoldenDyn:       goldenDyn,
		GoldenCycles:    goldenCycles,
		ShardStart:      lo,
		ShardEnd:        hi,
		Disabled:        disabled,
	}
}

// config is the part of the campaign's configuration that a campaign
// rebuilt from its journal alone (a merge or a consolidation) needs to
// count its trials.
func (h *journalHeader) config() Config {
	return Config{Trials: h.Trials, Seed: h.Seed, LargeChange: math.Float64frombits(h.LargeChangeBits)}
}

// mismatch returns a description of the first identity field on which the
// two headers disagree, or "" when the journal belongs to this campaign.
func (h *journalHeader) mismatch(want *journalHeader) string {
	switch {
	case h.Version != want.Version:
		return fmt.Sprintf("journal version %d, want %d", h.Version, want.Version)
	case h.Workload != want.Workload:
		return fmt.Sprintf("workload %q, want %q", h.Workload, want.Workload)
	case h.Technique != want.Technique:
		return fmt.Sprintf("technique %q, want %q", h.Technique, want.Technique)
	case h.Trials != want.Trials:
		return fmt.Sprintf("trial count %d, want %d", h.Trials, want.Trials)
	case h.Seed != want.Seed:
		return fmt.Sprintf("seed %d, want %d", h.Seed, want.Seed)
	case h.Model != want.Model:
		return fmt.Sprintf("fault model %q, want %q", h.Model, want.Model)
	case h.SymptomWindow != want.SymptomWindow:
		return fmt.Sprintf("symptom window %d, want %d", h.SymptomWindow, want.SymptomWindow)
	case h.WatchdogFactor != want.WatchdogFactor:
		return fmt.Sprintf("watchdog factor %d, want %d", h.WatchdogFactor, want.WatchdogFactor)
	case h.LargeChangeBits != want.LargeChangeBits:
		return "large-change threshold differs"
	case h.ShardStart != want.ShardStart || h.ShardEnd != want.ShardEnd:
		return fmt.Sprintf("shard range [%d,%d), want [%d,%d)",
			h.ShardStart, h.ShardEnd, want.ShardStart, want.ShardEnd)
	case h.Disabled != want.Disabled:
		return fmt.Sprintf("disabled-check count %d, want %d — module or inputs changed", h.Disabled, want.Disabled)
	case h.GoldenDyn != want.GoldenDyn || h.GoldenCycles != want.GoldenCycles:
		return fmt.Sprintf("golden run (%d dyn, %d cycles), want (%d, %d) — module or inputs changed",
			h.GoldenDyn, h.GoldenCycles, want.GoldenDyn, want.GoldenCycles)
	}
	return ""
}

// mergeMismatch is mismatch with the shard range neutralized: two shard
// journals of the same campaign agree on every identity field except the
// subrange they cover.
func (h *journalHeader) mergeMismatch(want *journalHeader) string {
	a := *h
	a.ShardStart, a.ShardEnd = want.ShardStart, want.ShardEnd
	return a.mismatch(want)
}

// journalWriter appends checksummed records through a shared batch buffer.
// Safe for concurrent use by campaign workers.
type journalWriter struct {
	mu      sync.Mutex
	f       *os.File // nil when wrapping a plain io.Writer (tests)
	bw      *bufio.Writer
	pending int
	err     error // first write error; campaigns fail fast on it
}

func newJournalWriter(f *os.File) *journalWriter {
	return &journalWriter{f: f, bw: bufio.NewWriter(f)}
}

// encodeLine renders one journal line: checksum, space, payload, newline.
func encodeLine(rec *journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(payload)+10)
	line = append(line, fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload))...)
	line = append(line, ' ')
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// append writes one record, flushing every journalFlushBatch records so a
// crash forfeits a bounded number of trials. Each batch flush is followed by
// an fsync: a batch is only "durable" once the OS can no longer lose it, so
// a power-loss-style kill (not just a process kill) forfeits at most one
// in-flight batch — never records a coordinator may already have counted
// from a replay of this journal.
func (w *journalWriter) append(rec *journalRecord) error {
	line, err := encodeLine(rec)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if _, err := w.bw.Write(line); err != nil {
		w.err = err
		return err
	}
	w.pending++
	if w.pending >= journalFlushBatch {
		w.pending = 0
		if err := w.bw.Flush(); err != nil {
			w.err = err
			return err
		}
		if w.f != nil {
			if err := w.f.Sync(); err != nil {
				w.err = err
				return err
			}
		}
	}
	return nil
}

// close drains the batch buffer and syncs the file so a completed campaign's
// journal survives anything short of media failure.
func (w *journalWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.bw.Flush()
	if w.f != nil {
		if serr := w.f.Sync(); err == nil {
			err = serr
		}
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
	}
	if w.err != nil {
		return w.err
	}
	return err
}

// journalState is everything replay recovered from a journal.
type journalState struct {
	header    *journalHeader
	trials    map[int]Trial
	anomalies map[int]Anomaly
	// valid is the byte length of the intact prefix; everything past it is
	// tail damage the resume path truncates before appending.
	valid int64
}

// replayJournal reads records until the first damaged or torn line. It
// never fails: a journal with no intact header simply yields a state with
// header == nil (resume then starts the campaign from scratch, which is the
// correct recovery for a crash during the very first batch).
func replayJournal(r io.Reader) *journalState {
	st := &journalState{
		trials:    make(map[int]Trial),
		anomalies: make(map[int]Anomaly),
	}
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			// EOF with a partial line is a torn write; any other error ends
			// the intact prefix just the same.
			return st
		}
		rec, ok := decodeLine(line)
		if !ok {
			return st
		}
		switch {
		case rec.H != nil:
			// A header is only valid as the first record.
			if st.header != nil || st.valid != 0 {
				return st
			}
			st.header = rec.H
		case rec.T != nil:
			if st.header == nil || rec.T.Index < 0 || rec.T.Index >= st.header.Trials {
				return st
			}
			st.trials[rec.T.Index] = decodeTrial(rec.T)
		case rec.A != nil:
			if st.header == nil || rec.A.Index < 0 || rec.A.Index >= st.header.Trials {
				return st
			}
			st.anomalies[rec.A.Index] = Anomaly{
				Trial:  rec.A.Index,
				Seed:   rec.A.Seed,
				Reason: rec.A.Reason,
				Stack:  rec.A.Stack,
			}
		default:
			return st
		}
		st.valid += int64(len(line))
	}
}

// decodeLine validates one "<crc8hex> <json>\n" line.
func decodeLine(line string) (*journalRecord, bool) {
	if len(line) < 11 || line[len(line)-1] != '\n' || line[8] != ' ' {
		return nil, false
	}
	sum, err := strconv.ParseUint(line[:8], 16, 32)
	if err != nil {
		return nil, false
	}
	payload := line[9 : len(line)-1]
	if crc32.ChecksumIEEE([]byte(payload)) != uint32(sum) {
		return nil, false
	}
	rec := new(journalRecord)
	if err := json.Unmarshal([]byte(payload), rec); err != nil {
		return nil, false
	}
	return rec, true
}

// openJournal prepares the campaign's journal file. With resume set it
// replays the intact prefix, validates the header against this campaign's
// identity, truncates any tail damage, and returns the recovered state
// alongside a writer positioned to append; otherwise (or when the journal
// is missing, headerless, or empty) it starts a fresh journal with a new
// header. The returned state is nil when nothing was recovered.
func openJournal(path string, resume bool, hdr *journalHeader) (*journalWriter, *journalState, error) {
	if resume {
		if f, err := os.Open(path); err == nil {
			st := replayJournal(f)
			f.Close()
			if st.header != nil {
				if d := st.header.mismatch(hdr); d != "" {
					return nil, nil, fmt.Errorf("fault: journal %s does not match this campaign: %s", path, d)
				}
				af, err := os.OpenFile(path, os.O_WRONLY, 0o644)
				if err != nil {
					return nil, nil, err
				}
				// Cut the damaged tail so the journal stays replayable after
				// this resume appends past it.
				if err := af.Truncate(st.valid); err != nil {
					af.Close()
					return nil, nil, err
				}
				if _, err := af.Seek(st.valid, io.SeekStart); err != nil {
					af.Close()
					return nil, nil, err
				}
				return newJournalWriter(af), st, nil
			}
		} else if !os.IsNotExist(err) {
			return nil, nil, err
		}
		// Missing file or no intact header: fall through to a fresh start.
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w := newJournalWriter(f)
	if err := w.append(&journalRecord{H: hdr}); err != nil {
		w.close()
		return nil, nil, err
	}
	return w, nil, nil
}
