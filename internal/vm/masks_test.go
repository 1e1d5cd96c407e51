package vm

import (
	"math/rand"
	"testing"
)

// TestAccessMasksMatchReplay drives AccessMasks through random access
// streams interleaved with rungs and thinnings the way the fault
// campaign's ladder does them — append the new rung, drop some rungs, then
// declare the count — up to a full MaskRungs-rung ladder, and checks every
// word's record at every surviving rung against a replay of the stream.
func TestAccessMasksMatchReplay(t *testing.T) {
	type access struct {
		at   int
		w    uint64
		load bool
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		limit := 1 + rng.Intn(MaskRungs)
		if seed%4 == 0 {
			limit = MaskRungs
		}
		const words = 24
		a := &AccessMasks{outLo: words, outHi: words}
		var log []access
		var rungAt []int // event index of each surviving rung
		for ev := 0; ev < 4000; ev++ {
			if rng.Intn(20) != 0 {
				acc := access{at: ev, w: uint64(rng.Intn(words)), load: rng.Intn(2) == 0}
				log = append(log, acc)
				if acc.load {
					a.load(acc.w)
				} else {
					a.store(acc.w)
				}
				continue
			}
			rungAt = append(rungAt, ev)
			for len(rungAt) > limit {
				var keep uint64
				kept := rungAt[:0]
				for k, at := range rungAt {
					if rng.Intn(2) == 0 || k == len(rungAt)-1 && len(kept) == 0 {
						keep |= 1 << k
						kept = append(kept, at)
					}
				}
				rungAt = kept
				a.Thin(keep)
			}
			a.SetRungs(len(rungAt))
		}
		if int(a.rungs) != len(rungAt) {
			t.Fatalf("seed %d: %d rungs recorded, %d survive", seed, a.rungs, len(rungAt))
		}
		for k, at := range rungAt {
			for w := uint64(0); w < words; w++ {
				var accessed, firstLoad, loadedAfter bool
				for _, acc := range log {
					if acc.w != w || acc.at < at {
						continue
					}
					if !accessed {
						accessed, firstLoad = true, acc.load
					}
					loadedAfter = loadedAfter || acc.load
				}
				x := a.word(w)
				if got := x.undet > uint8(k); got != accessed {
					t.Fatalf("seed %d, rung %d, word %d: accessed after %v, replay %v", seed, k, w, got, accessed)
				}
				if got := accessed && x.loadNext&(1<<k) != 0; got != firstLoad {
					t.Fatalf("seed %d, rung %d, word %d: loaded next %v, replay %v", seed, k, w, got, firstLoad)
				}
				if got := x.loads > uint8(k); got != loadedAfter {
					t.Fatalf("seed %d, rung %d, word %d: loaded after %v, replay %v", seed, k, w, got, loadedAfter)
				}
				if got, want := a.dead(w, uint8(k), 0), !accessed || !firstLoad; got != want {
					t.Fatalf("seed %d, rung %d, word %d: dead %v, want %v", seed, k, w, got, want)
				}
			}
		}
	}
}
