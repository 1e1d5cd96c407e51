package fault

import "testing"

// TestSnapLadderRule drives the ladder rule over golden runs of many
// lengths, checking after every snapshot that the ladder ascends, sits on
// multiples of the current interval and stays within maxSnapshots, that
// thinning keeps half the cap, and at the end that a golden run of at most
// 2·minSnapInterval instructions gets no ladder while any longer one gets
// one, and that a run the cap covers at the first spacing keeps every
// multiple of minSnapInterval. It also pins the cap: a ladder over a
// 50M-instruction golden run holds 32-64 snapshots, and one over
// 64·minSnapInterval instructions is never thinned.
func TestSnapLadderRule(t *testing.T) {
	if maxSnapshots != 64 {
		t.Fatalf("maxSnapshots = %d, want 64", maxSnapshots)
	}
	for _, goldenDyn := range []int64{
		1, minSnapInterval, 2 * minSnapInterval, 2*minSnapInterval + 1,
		3*minSnapInterval + 7, 100_000, 1_234_567, 64 * minSnapInterval,
		64*minSnapInterval + 1, 50_000_000,
	} {
		l := &snapLadder{interval: minSnapInterval}
		for at := l.next(0); at < goldenDyn; at = l.next(at) {
			l.add(at, nil)
			if len(l.at) > maxSnapshots {
				t.Fatalf("golden %d: ladder holds %d snapshots", goldenDyn, len(l.at))
			}
			for k, a := range l.at {
				if a%l.interval != 0 || (k > 0 && a <= l.at[k-1]) {
					t.Fatalf("golden %d: ladder %v (interval %d) not ascending multiples of the interval",
						goldenDyn, l.at, l.interval)
				}
			}
		}
		if l.interval > minSnapInterval && len(l.at) < (maxSnapshots+1)/2 {
			t.Fatalf("golden %d: thinned ladder holds only %d snapshots", goldenDyn, len(l.at))
		}
		if rungs := (goldenDyn - 1) / minSnapInterval; rungs <= maxSnapshots &&
			(l.interval != minSnapInterval || int64(len(l.at)) != rungs) {
			t.Fatalf("golden %d: ladder %v (interval %d) dropped some of the %d multiples of %d",
				goldenDyn, l.at, l.interval, rungs, minSnapInterval)
		}
		if goldenDyn == 50_000_000 && (len(l.at) < 32 || len(l.at) > 64) {
			t.Fatalf("ladder over golden %d holds %d snapshots, want 32-64", goldenDyn, len(l.at))
		}
		if goldenDyn <= 64*minSnapInterval && l.interval != minSnapInterval {
			t.Fatalf("ladder over golden %d thinned to interval %d", goldenDyn, l.interval)
		}
		snaps, _ := l.ladder()
		if len(snaps) == 1 {
			t.Fatalf("golden %d: a one-snapshot ladder", goldenDyn)
		}
		if goldenDyn <= 2*minSnapInterval && snaps != nil {
			t.Fatalf("golden %d: short golden run got ladder %v", goldenDyn, l.at)
		}
		if goldenDyn > 2*minSnapInterval && snaps == nil {
			t.Fatalf("golden %d: no ladder", goldenDyn)
		}
		if len(l.at) > 0 && l.at[len(l.at)-1] >= goldenDyn {
			t.Fatalf("golden %d: ladder %v reaches past the run", goldenDyn, l.at)
		}
	}
}
