package profile

import (
	"math"

	"repro/internal/ir"
)

// Data is the result of a profiling run: one histogram per value-generating
// instruction, keyed by the instruction's stable UID.
type Data struct {
	Bins  int
	ByUID map[int]*Histogram
}

// Hist returns the histogram for an instruction UID, or nil.
func (d *Data) Hist(uid int) *Histogram { return d.ByUID[uid] }

// Collector gathers value profiles during interpretation; it implements
// vm.Profiler. One collector per profiling run; merge multiple runs (e.g.
// several training inputs) with Merge.
type Collector struct {
	bins int
	data *Data
	// hists resolves an instruction UID to its histogram in one index, so
	// Data.ByUID is consulted only the first time a site is seen.
	hists []*Histogram
}

// NewCollector returns a collector building histograms with the given bin
// bound (the paper uses 5).
func NewCollector(bins int) *Collector {
	return &Collector{bins: bins, data: &Data{Bins: bins, ByUID: make(map[int]*Histogram)}}
}

// Record implements the profiler hook: it feeds one observed value into the
// producing instruction's histogram. Values with no exact float64
// representation — NaN, infinities, and integers beyond 2^53 that would be
// rounded — are recorded as uncheckable: they count toward the observation
// total (deflating check coverage) but enter no bin, so no expected-value
// check is ever planned around a constant that differs from the value the
// program actually computes.
//
// Instruction UIDs are non-negative and dense within a module (Module.NewUID
// hands out 1, 2, ... and Clone preserves them), so the collector keeps a
// table indexed by UID; it grows only to the largest UID recorded.
func (c *Collector) Record(in *ir.Instr, bits uint64) {
	var v float64
	ok := true
	if in.Ty == ir.F64 {
		v = math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			ok = false
		}
	} else {
		i := int64(bits)
		v = float64(i)
		// Exact round-trip check: v may round up to 2^63, which does not
		// fit back into an int64, so guard the conversion range first.
		if v < minInt64F || v >= maxInt64F || int64(v) != i {
			ok = false
		}
	}
	var h *Histogram
	if in.UID < len(c.hists) {
		h = c.hists[in.UID]
	}
	if h == nil {
		h = c.site(in.UID)
	}
	if ok {
		h.Add(v)
	} else {
		h.AddUncheckable()
	}
}

// site resolves uid's histogram the first time Record sees it: the one in
// Data.ByUID (Merge may have put it there) or a new one entered there, and
// stores it in the table.
func (c *Collector) site(uid int) *Histogram {
	if uid >= len(c.hists) {
		c.hists = append(c.hists, make([]*Histogram, uid+1-len(c.hists))...)
	}
	h := c.data.ByUID[uid]
	if h == nil {
		h = NewHistogram(c.bins)
		c.data.ByUID[uid] = h
	}
	c.hists[uid] = h
	return h
}

// int64 range bounds as float64s. maxInt64F is 2^63 exactly; any float
// >= 2^63 or < -2^63 cannot have come from an exactly-represented int64.
const (
	maxInt64F = 9223372036854775808.0
	minInt64F = -9223372036854775808.0
)

// Data returns the collected profiles.
func (c *Collector) Data() *Data { return c.data }

// Merge folds other into d by re-adding each bin's midpoint (a point bin's
// value) with the bin's full count. This is an approximation (the underlying
// streams are gone), matching the paper's suggestion of combining profiles
// from multiple inputs, but every count is carried over exactly: Total grows
// by other's Total.
func (d *Data) Merge(other *Data) {
	for uid, oh := range other.ByUID {
		h := d.ByUID[uid]
		if h == nil {
			h = NewHistogram(d.Bins)
			d.ByUID[uid] = h
		}
		var binned uint64
		for _, b := range oh.Bins {
			binned += b.Count
		}
		// Carry over uncheckable observations (counted but unbinned).
		if oh.Total > binned {
			h.Total += oh.Total - binned
		}
		for _, b := range oh.Bins {
			v := b.Lo
			if b.Lo != b.Hi {
				v = (b.Lo + b.Hi) / 2
			}
			h.addN(v, b.Count)
		}
	}
}
