package profile_test

import (
	"math"
	"sort"

	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/vm"
)

// refCollector is the straightforward value profiler the Collector must
// agree with: a map lookup per recorded value and a binary search over the
// bins (refAdd). It shares no lookup or insertion code with the Collector.
type refCollector struct {
	bins int
	data *profile.Data
}

func newRefCollector(bins int) *refCollector {
	return &refCollector{bins: bins, data: &profile.Data{Bins: bins, ByUID: map[int]*profile.Histogram{}}}
}

func (c *refCollector) Record(in *ir.Instr, bits uint64) {
	var v float64
	ok := true
	if in.Ty == ir.F64 {
		v = math.Float64frombits(bits)
		ok = !math.IsNaN(v) && !math.IsInf(v, 0)
	} else {
		i := int64(bits)
		v = float64(i)
		ok = v >= -(1<<63) && v < 1<<63 && int64(v) == i
	}
	h := c.data.ByUID[in.UID]
	if h == nil {
		h = profile.NewHistogram(c.bins)
		c.data.ByUID[in.UID] = h
	}
	if ok {
		refAdd(h, v)
	} else {
		h.Total++
	}
}

// refAdd is Algorithm 1 with the covering bin found by sort.Search.
func refAdd(h *profile.Histogram, v float64) {
	h.Total++
	i := sort.Search(len(h.Bins), func(i int) bool { return h.Bins[i].Hi >= v })
	if i < len(h.Bins) && h.Bins[i].Lo <= v && v <= h.Bins[i].Hi {
		h.Bins[i].Count++
		return
	}
	h.Bins = append(h.Bins, profile.Bin{})
	copy(h.Bins[i+1:], h.Bins[i:])
	h.Bins[i] = profile.Bin{Lo: v, Hi: v, Count: 1}
	if len(h.Bins) <= h.B {
		return
	}
	best := 0
	bestGap := h.Bins[1].Lo - h.Bins[0].Hi
	for j := 1; j < len(h.Bins)-1; j++ {
		if gap := h.Bins[j+1].Lo - h.Bins[j].Hi; gap < bestGap {
			bestGap = gap
			best = j
		}
	}
	h.Bins[best] = profile.Bin{
		Lo:    h.Bins[best].Lo,
		Hi:    h.Bins[best+1].Hi,
		Count: h.Bins[best].Count + h.Bins[best+1].Count,
	}
	h.Bins = append(h.Bins[:best+1], h.Bins[best+2:]...)
}

// replayCap bounds mergeReplay's per-bin replay: it re-adds at most this
// many copies of a bin's value.
const replayCap = 10_002

// mergeReplay is the replaying merge Data.Merge must agree with whenever no
// bin count exceeds replayCap: each bin's midpoint (a point bin's value) is
// re-added one refAdd at a time, and only the replayed adds reach Total.
func mergeReplay(d, other *profile.Data) {
	for uid, oh := range other.ByUID {
		h := d.ByUID[uid]
		if h == nil {
			h = profile.NewHistogram(d.Bins)
			d.ByUID[uid] = h
		}
		var binned uint64
		for _, b := range oh.Bins {
			binned += b.Count
		}
		if oh.Total > binned {
			h.Total += oh.Total - binned
		}
		for _, b := range oh.Bins {
			v := b.Lo
			if b.Lo != b.Hi {
				v = (b.Lo + b.Hi) / 2
			}
			for i := uint64(0); i < b.Count && i < replayCap; i++ {
				refAdd(h, v)
			}
		}
	}
}

// tee forwards every recorded value to two profilers, so one run profiles
// under both collectors.
type tee struct{ a, b vm.Profiler }

func (t tee) Record(in *ir.Instr, bits uint64) {
	t.a.Record(in, bits)
	t.b.Record(in, bits)
}
