package fault

import "testing"

// TestSnapLadderRule drives the ladder rule over golden runs of many
// lengths under several caps, checking after every snapshot that the ladder
// ascends, sits on multiples of the current interval and stays within its
// cap, that thinning keeps half the cap, and at the end that a golden run of at most 2·minSnapInterval
// instructions gets no ladder while any longer one gets one whenever the
// cap leaves room for two snapshots after a thinning, and that a run the
// cap covers at the first spacing keeps every multiple of minSnapInterval.
// It also pins the default cap: a default ladder over a 50M-instruction
// golden run holds 32-64 snapshots, and one over 64·minSnapInterval
// instructions is never thinned.
func TestSnapLadderRule(t *testing.T) {
	for _, ckpt := range []int{0, 1, 2, 3, 4, 5, 8, 32, 64} {
		cfg := DefaultConfig()
		cfg.Checkpoints = ckpt
		limit := maxSnapshots
		if ckpt > 0 {
			limit = ckpt
		}
		for _, goldenDyn := range []int64{
			1, minSnapInterval, 2 * minSnapInterval, 2*minSnapInterval + 1,
			3*minSnapInterval + 7, 100_000, 1_234_567, 64 * minSnapInterval,
			64*minSnapInterval + 1, 50_000_000,
		} {
			l := newSnapLadder(cfg)
			for at := l.next(0); at < goldenDyn; at = l.next(at) {
				l.add(at, nil)
				if len(l.at) > limit {
					t.Fatalf("cap %d, golden %d: ladder holds %d snapshots", limit, goldenDyn, len(l.at))
				}
				for k, a := range l.at {
					if a%l.interval != 0 || (k > 0 && a <= l.at[k-1]) {
						t.Fatalf("cap %d, golden %d: ladder %v (interval %d) not ascending multiples of the interval",
							limit, goldenDyn, l.at, l.interval)
					}
				}
			}
			if l.interval > minSnapInterval && len(l.at) < (limit+1)/2 {
				t.Fatalf("cap %d, golden %d: thinned ladder holds only %d snapshots", limit, goldenDyn, len(l.at))
			}
			if rungs := (goldenDyn - 1) / minSnapInterval; rungs <= int64(limit) &&
				(l.interval != minSnapInterval || int64(len(l.at)) != rungs) {
				t.Fatalf("cap %d, golden %d: ladder %v (interval %d) dropped some of the %d multiples of %d",
					limit, goldenDyn, l.at, l.interval, rungs, minSnapInterval)
			}
			if ckpt == 0 {
				if goldenDyn == 50_000_000 && (len(l.at) < 32 || len(l.at) > 64) {
					t.Fatalf("default ladder over golden %d holds %d snapshots, want 32-64", goldenDyn, len(l.at))
				}
				if goldenDyn <= 64*minSnapInterval && l.interval != minSnapInterval {
					t.Fatalf("default ladder over golden %d thinned to interval %d", goldenDyn, l.interval)
				}
			}
			at, snaps, _ := l.ladder()
			if len(at) != len(snaps) {
				t.Fatalf("cap %d, golden %d: %d indices for %d snapshots", limit, goldenDyn, len(at), len(snaps))
			}
			if len(at) == 1 {
				t.Fatalf("cap %d, golden %d: a one-snapshot ladder", limit, goldenDyn)
			}
			if goldenDyn <= 2*minSnapInterval && at != nil {
				t.Fatalf("cap %d, golden %d: short golden run got ladder %v", limit, goldenDyn, at)
			}
			if goldenDyn > 2*minSnapInterval && limit >= 3 && at == nil {
				t.Fatalf("cap %d, golden %d: no ladder", limit, goldenDyn)
			}
			if len(at) > 0 && at[len(at)-1] >= goldenDyn {
				t.Fatalf("cap %d, golden %d: ladder %v reaches past the run", limit, goldenDyn, at)
			}
		}
	}
}
