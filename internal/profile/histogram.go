// Package profile implements the paper's value profiling: a bounded online
// histogram per value-generating instruction (Algorithm 1) and a greedy
// compact-range extraction (Algorithm 2). Profiles are keyed by stable
// instruction UIDs so they can be collected on one module clone and applied
// to another.
package profile

import (
	"fmt"
	"sort"
	"strings"
)

// DefaultBins is the histogram size used in the paper's experiments (B = 5).
const DefaultBins = 5

// Bin is one histogram bucket: the closed interval [Lo, Hi] with Count
// observed values.
type Bin struct {
	Lo, Hi float64
	Count  uint64
}

// Histogram is the paper's Algorithm 1: an online histogram with at most B
// bins. Inserting a value either increments a covering bin or adds a point
// bin and merges the two closest bins to restore the bound. Values are
// tracked as float64; integer instruction outputs are profiled via exact
// integer-valued floats (exact up to 2^53, far beyond the workloads' value
// ranges).
type Histogram struct {
	B    int
	Bins []Bin // sorted by Lo, non-overlapping
	// Total counts every added value, including ones merged away.
	Total uint64
}

// NewHistogram returns an empty histogram with the given bin bound.
func NewHistogram(b int) *Histogram {
	if b < 1 {
		b = 1
	}
	return &Histogram{B: b}
}

// AddUncheckable records an observation whose value cannot be represented
// exactly as a float64 (an int64 beyond 2^53, a NaN or an infinity). It
// counts toward Total but enters no bin, so the coverage of any planned
// check correctly reflects that this value would escape it. Without this
// accounting, a check planned from the representable observations fires on
// the unrepresentable ones — on the very input it was profiled on.
func (h *Histogram) AddUncheckable() {
	h.Total++
}

// Add inserts a value (Algorithm 1).
func (h *Histogram) Add(v float64) {
	h.Total++
	// Line 1-3: if v falls into an existing bin, bump it.
	i, covered := h.search(v)
	if covered {
		h.Bins[i].Count++
		return
	}
	// Line 5-6: insert a point bin, keeping bins sorted.
	h.Bins = append(h.Bins, Bin{})
	copy(h.Bins[i+1:], h.Bins[i:])
	h.Bins[i] = Bin{Lo: v, Hi: v, Count: 1}
	if len(h.Bins) <= h.B {
		return
	}
	// Line 7-8: merge the pair with the smallest gap.
	best := 0
	bestGap := h.Bins[1].Lo - h.Bins[0].Hi
	for j := 1; j < len(h.Bins)-1; j++ {
		gap := h.Bins[j+1].Lo - h.Bins[j].Hi
		if gap < bestGap {
			bestGap = gap
			best = j
		}
	}
	h.Bins[best] = Bin{
		Lo:    h.Bins[best].Lo,
		Hi:    h.Bins[best+1].Hi,
		Count: h.Bins[best].Count + h.Bins[best+1].Count,
	}
	h.Bins = append(h.Bins[:best+1], h.Bins[best+2:]...)
}

// search returns the index of the first bin whose Hi is not below v (or
// len(h.Bins)) and whether that bin covers v. With at most B bins a linear
// scan beats a binary search; the negated comparison makes a NaN v scan past
// every bin, as sort.Search's predicate Hi >= v would.
func (h *Histogram) search(v float64) (int, bool) {
	i := 0
	for i < len(h.Bins) && !(h.Bins[i].Hi >= v) {
		i++
	}
	return i, i < len(h.Bins) && h.Bins[i].Lo <= v
}

// addN inserts v n times. Bins only ever widen, so once Add has placed v
// the bin that covers it keeps covering it, and the remaining n-1 inserts
// just bump that bin. A value no bin can cover (NaN) counts toward Total
// only, like an uncheckable observation.
func (h *Histogram) addN(v float64, n uint64) {
	if n == 0 {
		return
	}
	h.Add(v)
	h.Total += n - 1
	if i, covered := h.search(v); covered {
		h.Bins[i].Count += n - 1
	}
}

// Range is a compact value range with its observed population.
type Range struct {
	Lo, Hi float64
	Count  uint64
}

// CompactRange is the paper's Algorithm 2: pick the highest-frequency bin
// and greedily absorb the more popular neighbor while the range width stays
// within rthr (or until bins run out). Returns the resulting range and the
// fraction of all observed values it covers.
func (h *Histogram) CompactRange(rthr float64) (Range, float64) {
	if len(h.Bins) == 0 {
		return Range{}, 0
	}
	// Line 1: seed with the max-frequency bin.
	best := 0
	for i, b := range h.Bins {
		if b.Count > h.Bins[best].Count {
			best = i
		}
	}
	lo, hi := best, best
	ret := h.Bins[best]
	// Line 5-14: extend toward the heavier neighbor while within threshold.
	for ret.Hi-ret.Lo <= rthr && (lo > 0 || hi < len(h.Bins)-1) {
		var leftCount, rightCount uint64
		hasLeft, hasRight := lo > 0, hi < len(h.Bins)-1
		if hasLeft {
			leftCount = h.Bins[lo-1].Count
		}
		if hasRight {
			rightCount = h.Bins[hi+1].Count
		}
		var cand Range
		var takeLeft bool
		if hasLeft && (!hasRight || leftCount >= rightCount) {
			cand = Range{Lo: h.Bins[lo-1].Lo, Hi: ret.Hi, Count: ret.Count + leftCount}
			takeLeft = true
		} else {
			cand = Range{Lo: ret.Lo, Hi: h.Bins[hi+1].Hi, Count: ret.Count + rightCount}
		}
		if cand.Hi-cand.Lo > rthr {
			break // absorbing would blow the width budget
		}
		ret = Bin{Lo: cand.Lo, Hi: cand.Hi, Count: cand.Count}
		if takeLeft {
			lo--
		} else {
			hi++
		}
	}
	cov := 0.0
	if h.Total > 0 {
		cov = float64(ret.Count) / float64(h.Total)
	}
	return Range{Lo: ret.Lo, Hi: ret.Hi, Count: ret.Count}, cov
}

// TopValues returns up to n single values (point bins) ordered by
// decreasing frequency, with their combined coverage of all observations.
// Used for the paper's single-value and two-value checks (Figure 6 a/b).
func (h *Histogram) TopValues(n int) ([]float64, float64) {
	type pv struct {
		v float64
		c uint64
	}
	var points []pv
	for _, b := range h.Bins {
		if b.Lo == b.Hi {
			points = append(points, pv{b.Lo, b.Count})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].c != points[j].c {
			return points[i].c > points[j].c
		}
		return points[i].v < points[j].v
	})
	if len(points) > n {
		points = points[:n]
	}
	var vals []float64
	var covered uint64
	for _, p := range points {
		vals = append(vals, p.v)
		covered += p.c
	}
	cov := 0.0
	if h.Total > 0 {
		cov = float64(covered) / float64(h.Total)
	}
	return vals, cov
}

func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hist(total=%d)", h.Total)
	for _, bin := range h.Bins {
		fmt.Fprintf(&b, " [%g,%g]:%d", bin.Lo, bin.Hi, bin.Count)
	}
	return b.String()
}

// Invariant checks internal consistency (tests call this after random
// insertion sequences).
func (h *Histogram) Invariant() error {
	if len(h.Bins) > h.B {
		return fmt.Errorf("bin count %d exceeds bound %d", len(h.Bins), h.B)
	}
	var sum uint64
	for i, b := range h.Bins {
		if b.Lo > b.Hi {
			return fmt.Errorf("bin %d inverted: [%g,%g]", i, b.Lo, b.Hi)
		}
		if i > 0 && h.Bins[i-1].Hi >= b.Lo {
			return fmt.Errorf("bins %d,%d overlap or touch out of order", i-1, i)
		}
		if b.Count == 0 {
			return fmt.Errorf("bin %d empty", i)
		}
		sum += b.Count
	}
	// Total may exceed the bin sum: uncheckable observations (see
	// AddUncheckable) are counted but never binned.
	if sum > h.Total {
		return fmt.Errorf("bin counts %d exceed total %d", sum, h.Total)
	}
	return nil
}
