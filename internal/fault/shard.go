package fault

// Shard-journal merging. A sharded campaign splits its trial range across
// worker processes; each shard run writes an ordinary crc32 journal whose
// header records the subrange it covers (Config.ShardStart/ShardEnd). Trial
// indices are absolute and every trial draws from its own seed, so the
// per-shard journals of one campaign are disjoint views of the same
// deterministic trial sequence. Merging is therefore a pure fold: validate
// that the headers agree on every identity field except the shard range,
// then fold the records into a campaign rebuilt from the header, through
// the same fold, running Tally and finalize a resumed single-process
// campaign uses — the merged Report (Tally, per-trial records, Anomalies
// ordering) is bit-identical to an uninterrupted single-process run.
//
// Consolidation is the coordinator's fencing primitive: when a shard lease
// expires and the shard is reassigned, the dead worker's journal(s) are
// folded into a fresh journal at a new path, and the new attempt resumes
// from that. The dead worker — which may still be alive and writing — keeps
// appending to its own superseded file, which nothing reads again, so two
// attempts never share a journal file.

import (
	"fmt"
	"math"
	"os"
)

// sameTrial compares two trial records with float fields compared bitwise,
// so NaN fidelity values (legal: Measure is a user callback) compare equal
// to themselves.
func sameTrial(a, b Trial) bool {
	return a.Outcome == b.Outcome &&
		a.CheckKind == b.CheckKind &&
		a.SDC == b.SDC &&
		a.Acceptable == b.Acceptable &&
		math.Float64bits(a.Fidelity) == math.Float64bits(b.Fidelity) &&
		math.Float64bits(a.RelChange) == math.Float64bits(b.RelChange) &&
		a.TrapKind == b.TrapKind
}

// replayShardFiles replays each existing journal, checks the headers agree
// modulo shard range, and returns the states alongside the reference
// header. Headerless journals (a crash before the first batch) contribute
// nothing; missing files are an error unless allowMissing.
func replayShardFiles(paths []string, allowMissing bool) ([]*journalState, *journalHeader, error) {
	var (
		states []*journalState
		hdr    *journalHeader
	)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			if allowMissing && os.IsNotExist(err) {
				continue
			}
			return nil, nil, err
		}
		st := replayJournal(f)
		f.Close()
		if st.header == nil {
			continue
		}
		if hdr == nil {
			hdr = st.header
		} else if d := st.header.mergeMismatch(hdr); d != "" {
			return nil, nil, fmt.Errorf("fault: shard journal %s belongs to a different campaign: %s", p, d)
		}
		states = append(states, st)
	}
	return states, hdr, nil
}

// MergeShardJournals folds one campaign's per-shard journals into a single
// Report, bit-identical (Tally, per-trial records, Anomalies ordering) to
// the Report a single-process run of the whole campaign produces. Paths to
// journals that never got a header are tolerated (they contribute nothing);
// the journals must otherwise share one campaign identity. Trials no
// journal decided leave the merged Report Partial — a complete merge of a
// full shard set is never Partial.
func MergeShardJournals(paths []string) (*Report, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("fault: no shard journals to merge")
	}
	states, hdr, err := replayShardFiles(paths, false)
	if err != nil {
		return nil, err
	}
	if hdr == nil {
		return nil, fmt.Errorf("fault: no intact journal header among %d shard journals", len(paths))
	}
	whole := *hdr // the merge covers every shard's range
	whole.ShardStart, whole.ShardEnd = 0, hdr.Trials
	c := newCampaign(&whole, hdr.config())
	if _, err := c.fold(states); err != nil {
		return nil, err
	}
	c.finalize(nil)
	return c.rep, nil
}

// ConsolidateShardJournals folds the journals of one shard's previous
// attempts into a fresh journal at dst, ready for the next attempt to
// resume from. All sources must carry the identical header (same campaign
// AND same shard range). Records are written in ascending trial order, so
// consolidation output is deterministic given its inputs. The returned
// count is the number of decided trials dst holds; when no source has an
// intact header there is nothing to consolidate — dst is removed if present
// and the count is 0 (a resume from the missing dst starts the shard
// fresh, which is the correct recovery for a crash before the first
// batch).
func ConsolidateShardJournals(dst string, srcs []string) (decided int, err error) {
	states, hdr, err := replayShardFiles(srcs, true)
	if err != nil {
		return 0, err
	}
	if hdr == nil {
		if err := os.Remove(dst); err != nil && !os.IsNotExist(err) {
			return 0, err
		}
		return 0, nil
	}
	// Within one shard the range must match exactly, not just modulo range.
	for _, st := range states {
		if d := st.header.mismatch(hdr); d != "" {
			return 0, fmt.Errorf("fault: consolidating journals of different shards: %s", d)
		}
	}
	c := newCampaign(hdr, hdr.config())
	if decided, err = c.fold(states); err != nil {
		return 0, err
	}

	f, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	w := newJournalWriter(f)
	if err := w.append(&journalRecord{H: hdr}); err != nil {
		w.close()
		return 0, err
	}
	for i, s := range c.state {
		rec := &journalRecord{}
		switch s {
		case trialDone:
			rec.T = encodeTrial(i, c.rep.Trials[i])
		case trialQuarantined:
			rec.A = encodeAnomaly(c.anomalies[i])
		default:
			continue
		}
		if err := w.append(rec); err != nil {
			w.close()
			return 0, err
		}
	}
	if err := w.close(); err != nil {
		return 0, err
	}
	return decided, nil
}
