package fault

// Statistical early stopping. A campaign estimates proportions (coverage,
// USDC rate) from Bernoulli trials; the Wilson score interval gives a
// confidence range that behaves sanely at the extremes (p near 0 or 1,
// small n) where the normal approximation the paper quotes (Leveugle et
// al.) collapses. When Config.TargetCI is set, the campaign stops drawing
// trials once both intervals are at least that tight — the remaining
// trials cannot change the conclusion at the requested precision, so
// running them is wasted compute.

import "math"

// z95 is the two-sided 95% normal quantile used throughout the paper's
// error analysis.
const z95 = 1.96

// Wilson returns the Wilson score confidence interval [lo, hi] for a
// proportion estimated from successes out of n Bernoulli trials at normal
// quantile z (1.96 for 95%). n == 0 yields the vacuous interval [0, 1].
func Wilson(successes, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	p := float64(successes) / float64(n)
	nn := float64(n)
	z2 := z * z
	denom := 1 + z2/nn
	center := (p + z2/(2*nn)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nn+z2/(4*nn*nn))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// CoverageInterval is the 95% Wilson interval for the paper's
// fault-coverage proportion (Masked + SWDetect + HWDetect over trials).
func (t *Tally) CoverageInterval() (lo, hi float64) {
	return Wilson(t.covered(), t.N, z95)
}

// USDCInterval is the 95% Wilson interval for the unacceptable-SDC rate.
func (t *Tally) USDCInterval() (lo, hi float64) {
	return Wilson(t.Count[USDC], t.N, z95)
}

// CITight reports whether the 95% Wilson interval for successes/n is no
// wider than target.
func CITight(successes, n int, target float64) bool {
	lo, hi := Wilson(successes, n, z95)
	return hi-lo <= target
}

// EarlyStop is the Config.TargetCI stopping rule over decided-trial counts:
// both the coverage interval (covered of done) and the USDC-rate interval
// (usdc of done) are no wider than target. A non-positive target never
// stops. A campaign applies it to its running Tally, the campaign service
// to counts pooled across shards.
func EarlyStop(done, covered, usdc int, target float64) bool {
	return target > 0 && done > 0 && CITight(covered, done, target) && CITight(usdc, done, target)
}
