package difftest

// Resume-equivalence invariant. A journaled fault-injection campaign that is
// interrupted at an arbitrary byte boundary and resumed must produce the
// same Report as one that ran uninterrupted — the journal replay, tail
// truncation, and per-trial seeding must compose to bit-identical results.
// The oracle probes this on generated programs: run a small journaled
// campaign, chop the journal at a seed-derived offset (sometimes inside the
// header, sometimes mid-record, sometimes not at all), resume, and diff.

import (
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/vm"
)

// resumeTrials keeps the invariant cheap: enough trials for the journal to
// hold several records, few enough that the oracle stays fast.
const resumeTrials = 5

// diffResume runs the interrupted-and-resumed campaign comparison for one
// module. Returns "" when the invariant holds, a description otherwise.
func diffResume(name string, mod *ir.Module, ints []int64, floats []float64) string {
	target := fault.Target{
		Name:       name,
		Bind:       func(m *vm.Machine) error { return bindInputs(m, mod, ints, floats) },
		Output:     "out",
		Measure:    func(golden, test []uint64) float64 { return 0 },
		Acceptable: func(float64) bool { return false },
	}
	cfg := fault.DefaultConfig()
	cfg.Trials = resumeTrials
	cfg.Workers = 1
	cfg.WatchdogFactor = 20

	jf, err := os.CreateTemp("", "difftest-journal-*.log")
	if err != nil {
		return err.Error()
	}
	path := jf.Name()
	jf.Close()
	defer os.Remove(path)

	run := func(resume bool) (*fault.Report, string) {
		c := cfg
		c.JournalPath = path
		c.Resume = resume
		rep, err := fault.Run(nil, target, mod, "Original", c)
		if err != nil {
			return nil, err.Error()
		}
		return rep, ""
	}

	full, d := run(false)
	if d != "" {
		return "uninterrupted campaign: " + d
	}

	// Chop the journal at a program-derived offset in [0, size]: sometimes
	// inside the header (resume restarts from scratch), sometimes inside or
	// between trial records (resume replays a prefix), sometimes nowhere.
	info, err := os.Stat(path)
	if err != nil {
		return err.Error()
	}
	cut := int64(crc32.ChecksumIEEE([]byte(name))) % (info.Size() + 1)
	if err := os.Truncate(path, cut); err != nil {
		return err.Error()
	}

	resumed, d := run(true)
	if d != "" {
		return fmt.Sprintf("resume after truncation to %d/%d bytes: %s", cut, info.Size(), d)
	}

	if resumed.Tally != full.Tally {
		return fmt.Sprintf("tally after resume (cut %d/%d): %+v != %+v", cut, info.Size(), resumed.Tally, full.Tally)
	}
	for i := range full.Trials {
		if resumed.Trials[i] != full.Trials[i] {
			return fmt.Sprintf("trial %d after resume (cut %d/%d): %+v != %+v",
				i, cut, info.Size(), resumed.Trials[i], full.Trials[i])
		}
	}
	if len(resumed.Anomalies) != 0 || full.Partial || resumed.Partial {
		return fmt.Sprintf("unexpected anomalies/partial state: resumed=%+v full=%+v", resumed, full)
	}
	return ""
}
