package core

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/profile"
)

// Protect resolves the scheme spec via ParseScheme ("dupval",
// "dupval+cfc"), applies it to m in place and returns static statistics —
// the string-addressed entry point used by the public API and the CLIs.
// Callers that need the unprotected module afterwards should Clone first.
// prof may be nil unless the scheme reports NeedsProfile.
func Protect(m *ir.Module, spec string, prof *profile.Data, p Params) (*Stats, error) {
	s, err := ParseScheme(spec)
	if err != nil {
		return nil, err
	}
	if s.NeedsProfile() && prof == nil {
		return nil, fmt.Errorf("core: %s requires value profiles", s.Name())
	}
	return s.Apply(m, prof, p)
}

// dupTransform is the paper's selective protection: state-variable
// duplication alone (dup), or combined with profile-derived expected-value
// checks and the two optimizations (dupval).
func dupTransform(valChecks bool) func(m *ir.Module, prof *profile.Data, p Params, stats *Stats) error {
	return func(m *ir.Module, prof *profile.Data, p Params, stats *Stats) error {
		nextID := nextCheckID(m)
		for _, f := range m.Funcs {
			svs := FindStateVars(f)
			stats.StateVars += len(svs)

			var specs map[*ir.Instr]CheckSpec
			if valChecks {
				specs = planChecks(f, prof, p)
			}

			d := newDuplicator(f, specs, valChecks && p.Opt2)
			d.dupLoads = p.DupThroughLoads
			dupChecks, next := d.mirrorStateVars(svs, nextID)
			nextID = next
			stats.DupInstrs += d.cloned
			stats.DupChecks += dupChecks

			if valChecks {
				// Optimization 1 prunes shallow checks, but never the ones
				// Optimization 2 promised in lieu of duplication.
				if p.Opt1 {
					applyOpt1(specs, d.mustCheck)
				}
				// Deterministic insertion order: walk instructions in
				// block order so CheckIDs are stable across runs.
				var targets []*ir.Instr
				f.Instrs(func(in *ir.Instr) bool {
					if _, ok := specs[in]; ok {
						targets = append(targets, in)
					}
					return true
				})
				for _, in := range targets {
					chk := buildCheckInstr(m, in, specs[in], nextID)
					nextID++
					in.Blk.InsertAfterInstr(chk, in)
					stats.ValueChecks++
					stats.CheckedInstr++
				}
			}
		}
		return nil
	}
}

// fullDupTransform is the SWIFT-style full-duplication baseline.
func fullDupTransform(m *ir.Module, prof *profile.Data, p Params, stats *Stats) error {
	nextID := nextCheckID(m)
	for _, f := range m.Funcs {
		fs, next := fullDuplicate(f, nextID)
		nextID = next
		stats.StateVars += fs.StateVars
		stats.DupInstrs += fs.DupInstrs
		stats.DupChecks += fs.DupChecks
	}
	return nil
}
