package experiments

// Golden-table regression for the §IV-D recovery experiment: restart
// recovery must price and classify every trial exactly as the serial
// restart loop it replaced. testdata/golden/recovery_t40.txt was rendered by
// that loop — which re-executed every detected trial from a snapshot — at
// 40 trials per benchmark and the default seed; any divergence means the
// scheduler changed a recovery outcome or a cycle count.

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

func TestGoldenRecoveryTable(t *testing.T) {
	cfg := fault.DefaultConfig()
	cfg.Trials = 40
	cfg.Seed = 2014
	_, table, err := Recovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "testdata", "golden", "recovery_t40.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if table != string(want) {
		t.Errorf("recovery table diverged from the serial restart loop's output (%s):\n got:\n%s\nwant:\n%s", path, table, want)
	}
}
