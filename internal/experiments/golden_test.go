package experiments

// Golden-table regression: every figure and extension table the tests
// render is compared byte for byte against testdata/golden/<name>.txt, so a
// change that moves a published number has to regenerate a golden file in
// plain sight. The trial counts are the small ones the shape tests already
// use; no extra campaigns run for the pinning.
//
// recovery_t40.txt was rendered by the serial restart loop that restart
// recovery replaced — it re-executed every detected trial from a snapshot —
// at 40 trials per benchmark and the default seed; any divergence means the
// scheduler changed a recovery outcome or a cycle count.

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// matchGolden fails t unless table equals testdata/golden/name.
func matchGolden(t *testing.T, name, table string) {
	t.Helper()
	path := filepath.Join("..", "..", "testdata", "golden", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if table != string(want) {
		t.Errorf("table diverged from %s:\n got:\n%s\nwant:\n%s", path, table, want)
	}
}

func TestGoldenRecoveryTable(t *testing.T) {
	cfg := fault.DefaultConfig()
	cfg.Trials = 40
	cfg.Seed = 2014
	_, table, err := Recovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	matchGolden(t, "recovery_t40.txt", table)
}
