// Package core implements the paper's contribution: a compiler
// transformation that partitions computation into (1) critical loop-carried
// state variables protected by selective duplication of their producer
// chains with a comparison check, (2) check-amenable computations protected
// by cheap expected-value checks derived from value profiles, and (3) the
// rest, left unprotected. It also implements the two optimizations coupling
// the mechanisms (checks pushed deepest in producer chains; duplication
// terminated at check-amenable producers) and a SWIFT-style full-duplication
// baseline for comparison.
package core

// Params tunes check amenability and the two optimizations.
type Params struct {
	// RangeThreshold is the paper's R_thr: the maximum width of a compact
	// range eligible for a range check.
	RangeThreshold float64
	// MinRangeCoverage is the fraction of profiled values the compact range
	// must cover for a range check to be inserted (controls false
	// positives).
	MinRangeCoverage float64
	// MinValueCoverage is the coverage required for single-/two-value
	// checks (Figure 6 a/b).
	MinValueCoverage float64
	// MinSamples is the minimum number of profiled observations before an
	// instruction is considered for checks at all.
	MinSamples uint64
	// Opt1 prunes checks that feed deeper check-amenable instructions
	// (paper Optimization 1).
	Opt1 bool
	// Opt2 terminates duplication at check-amenable producers, inserting a
	// value check instead (paper Optimization 2).
	Opt2 bool
	// DupThroughLoads continues duplication past load instructions
	// (re-loading through the duplicated address chain). The paper stops
	// at loads to save memory traffic (§III-B); this knob exists for the
	// ablation benchmark.
	DupThroughLoads bool
}

// DefaultParams returns the configuration used by the experiments.
func DefaultParams() Params {
	return Params{
		RangeThreshold:   4096,
		MinRangeCoverage: 0.995,
		MinValueCoverage: 0.9999,
		MinSamples:       32,
		Opt1:             true,
		Opt2:             true,
	}
}

// Stats reports what the transformation did, as fractions of the static
// instruction count before protection (paper Figure 10).
type Stats struct {
	Scheme       string // canonical scheme name ("dupval", "abft+dupval", ...)
	TotalInstrs  int    // static IR instructions before protection
	StateVars    int    // loop-header phis identified as state variables
	DupInstrs    int    // duplicated instructions inserted (incl. mirror phis)
	ValueChecks  int    // expected-value checks inserted
	DupChecks    int    // duplicate-comparison checks inserted
	CheckedInstr int    // instructions covered by a value check
	ABFTKernels  int    // kernel loops covered by ABFT checksums
	ABFTChecks   int    // checksum-comparison checks inserted at kernel exits
	CFCChecks    int    // control-flow signature checks inserted, one per checked block
	CFCUnchecked int    // fan-in blocks the signature scheme could not check
}

// FracStateVars returns state variables over original static instructions.
func (s *Stats) FracStateVars() float64 { return frac(s.StateVars, s.TotalInstrs) }

// FracDuplicated returns duplicated instructions over original static count.
func (s *Stats) FracDuplicated() float64 { return frac(s.DupInstrs, s.TotalInstrs) }

// FracValueChecks returns inserted value checks over original static count.
func (s *Stats) FracValueChecks() float64 { return frac(s.ValueChecks, s.TotalInstrs) }

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
