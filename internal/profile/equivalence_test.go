package profile_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestCollectorMatchesReference profiles every workload on both inputs with
// the Collector and the reference collector in the same run and requires
// identical data.
func TestCollectorMatchesReference(t *testing.T) {
	hists := 0
	for _, w := range workloads.All() {
		mod, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, kind := range []workloads.InputKind{workloads.Train, workloads.Test} {
			mach, err := vm.New(mod, vm.DefaultConfig())
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if err := w.Bind(mach, kind); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			mach.Reset()
			col := profile.NewCollector(profile.DefaultBins)
			ref := newRefCollector(profile.DefaultBins)
			if res := mach.Run(vm.RunOptions{Profiler: tee{col, ref}}); res.Trap != nil {
				t.Fatalf("%s/%s: %v", w.Name, kind, res.Trap)
			}
			if len(ref.data.ByUID) == 0 {
				t.Fatalf("%s/%s: nothing profiled", w.Name, kind)
			}
			if !reflect.DeepEqual(col.Data(), ref.data) {
				for uid, want := range ref.data.ByUID {
					if got := col.Data().Hist(uid); !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%s uid %d: got %v, want %v", w.Name, kind, uid, got, want)
					}
				}
				t.Fatalf("%s/%s: collector data differs from the reference", w.Name, kind)
			}
			hists += len(ref.data.ByUID)
		}
	}
	t.Logf("%d histograms identical", hists)
}

// TestCollectorRecordsIntoMergedData merges a profile into a collector's
// data mid-run: later values for a merged-in site extend the merged
// histogram, as they do under the reference.
func TestCollectorRecordsIntoMergedData(t *testing.T) {
	col := profile.NewCollector(profile.DefaultBins)
	ref := newRefCollector(profile.DefaultBins)
	seen := &ir.Instr{UID: 2, Ty: ir.I64}
	fresh := &ir.Instr{UID: 5, Ty: ir.I64}
	other := newRefCollector(profile.DefaultBins)
	for i := uint64(0); i < 20; i++ {
		other.Record(seen, i%4)
		other.Record(fresh, i%3)
	}
	for _, c := range []vm.Profiler{col, ref} {
		c.Record(seen, 9)
	}
	col.Data().Merge(other.data)
	ref.data.Merge(other.data)
	for _, c := range []vm.Profiler{col, ref} {
		c.Record(seen, 1)
		c.Record(fresh, 100)
	}
	if !reflect.DeepEqual(col.Data(), ref.data) {
		t.Fatalf("got %v, want %v", col.Data().ByUID, ref.data.ByUID)
	}
	if h := col.Data().Hist(5); h.Total != 21 {
		t.Fatalf("merged-in site lost its merged counts: %v", h)
	}
}

// FuzzCollectorStream feeds a stream of (UID, type, bits) records to the
// Collector and the reference collector. Each record is 9 bytes: the first
// byte's low 6 bits pick the UID, bit 6 picks F64 over I64, and the next 8
// bytes are the value's bits (little-endian). Both must build identical data
// that satisfies every histogram invariant.
func FuzzCollectorStream(f *testing.F) {
	rec := func(uid byte, flt bool, bits uint64) []byte {
		b := make([]byte, 9)
		b[0] = uid & 63
		if flt {
			b[0] |= 64
		}
		binary.LittleEndian.PutUint64(b[1:], bits)
		return b
	}
	var edges []byte
	for _, r := range [][]byte{
		rec(1, true, math.Float64bits(math.NaN())),
		rec(1, true, math.Float64bits(math.Inf(1))),
		rec(1, true, math.Float64bits(math.Inf(-1))),
		rec(1, true, math.Float64bits(math.Copysign(0, -1))),
		rec(1, true, math.Float64bits(0)),
		rec(1, true, math.Float64bits(math.MaxFloat64)),
		rec(2, false, math.MaxInt64), // rounds to 2^63: uncheckable
		rec(2, false, 1<<63),         // -2^63: exact
		rec(2, false, 1<<53+1),       // not exact in float64
		rec(2, false, uint64(1)<<53), // exact
		rec(63, false, 7), rec(0, false, 7),
	} {
		edges = append(edges, r...)
	}
	f.Add(uint8(5), edges)
	var ramp []byte
	for i := 0; i < 40; i++ {
		ramp = append(ramp, rec(byte(i%3), i%2 == 0, uint64(i*i))...)
	}
	f.Add(uint8(2), ramp)
	f.Add(uint8(1), []byte{})

	f.Fuzz(func(t *testing.T, binsRaw uint8, raw []byte) {
		bins := int(binsRaw%8) + 1
		col := profile.NewCollector(bins)
		ref := newRefCollector(bins)
		instrs := map[byte]*ir.Instr{}
		for ; len(raw) >= 9; raw = raw[9:] {
			in := instrs[raw[0]&127]
			if in == nil {
				in = &ir.Instr{UID: int(raw[0] & 63), Ty: ir.I64}
				if raw[0]&64 != 0 {
					in.Ty = ir.F64
				}
				instrs[raw[0]&127] = in
			}
			bits := binary.LittleEndian.Uint64(raw[1:9])
			col.Record(in, bits)
			ref.Record(in, bits)
		}
		if !reflect.DeepEqual(col.Data(), ref.data) {
			t.Fatalf("collector data differs from the reference:\ngot  %v\nwant %v", col.Data().ByUID, ref.data.ByUID)
		}
		for uid, h := range col.Data().ByUID {
			if err := h.Invariant(); err != nil {
				t.Fatalf("uid %d: %v", uid, err)
			}
		}
	})
}

// randomData builds a profile of up to 8 histograms, each fed a few random
// values; then about half the bins get extra counts, up to maxCount.
func randomData(rng *rand.Rand, bins int, maxCount uint64) *profile.Data {
	d := &profile.Data{Bins: bins, ByUID: map[int]*profile.Histogram{}}
	for uid := 0; uid < 8; uid++ {
		if rng.Intn(3) == 0 {
			continue
		}
		h := profile.NewHistogram(bins)
		for i, n := 0, rng.Intn(50); i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				refAdd(h, float64(rng.Intn(10)))
			case 1:
				refAdd(h, float64(rng.Intn(10000)))
			default:
				refAdd(h, rng.NormFloat64()*1e6)
			}
		}
		for i := range h.Bins {
			if rng.Intn(2) == 0 {
				extra := uint64(rng.Int63n(int64(maxCount - h.Bins[i].Count + 1)))
				h.Bins[i].Count += extra
				h.Total += extra
			}
		}
		h.Total += uint64(rng.Intn(3)) // uncheckable observations
		d.ByUID[uid] = h
	}
	return d
}

func cloneData(d *profile.Data) *profile.Data {
	c := &profile.Data{Bins: d.Bins, ByUID: map[int]*profile.Histogram{}}
	for uid, h := range d.ByUID {
		ch := *h
		ch.Bins = append([]profile.Bin(nil), h.Bins...)
		c.ByUID[uid] = &ch
	}
	return c
}

// TestMergeMatchesReplay checks the O(bins) Merge against the replaying
// merge on random profiles whose bin counts never exceed the replay cap.
func TestMergeMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		bins := rng.Intn(6) + 1
		d := randomData(rng, bins, replayCap)
		other := randomData(rng, rng.Intn(6)+1, replayCap)
		got, want := cloneData(d), cloneData(d)
		got.Merge(other)
		mergeReplay(want, other)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: Merge differs from replay:\ngot  %v\nwant %v", iter, got.ByUID, want.ByUID)
		}
		for uid, h := range got.ByUID {
			if err := h.Invariant(); err != nil {
				t.Fatalf("iter %d uid %d: %v", iter, uid, err)
			}
		}
	}
}

// TestMergeKeepsExactCounts merges a bin far beyond the replay cap: its
// whole count reaches both the bin and Total.
func TestMergeKeepsExactCounts(t *testing.T) {
	const n = 1_000_000
	heavy := &profile.Data{Bins: 5, ByUID: map[int]*profile.Histogram{
		3: {B: 5, Bins: []profile.Bin{{Lo: 10, Hi: 20, Count: n}, {Lo: 40, Hi: 40, Count: 7}}, Total: n + 9},
	}}
	d := &profile.Data{Bins: 5, ByUID: map[int]*profile.Histogram{}}
	h := profile.NewHistogram(5)
	refAdd(h, 15)
	d.ByUID[3] = h
	d.Merge(heavy)
	want := &profile.Histogram{B: 5, Bins: []profile.Bin{{Lo: 15, Hi: 15, Count: n + 1}, {Lo: 40, Hi: 40, Count: 7}}, Total: n + 10}
	if got := d.Hist(3); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
}
