// Package examples_test pins the core facade path of each example under
// examples/: every main.go there is a narrative program (fault-injection
// campaigns, printed tables), so instead of executing the binaries these
// tests drive the same softft calls each example is built on and assert the
// results are non-empty and deterministic across repeated runs.
package examples_test

import (
	"fmt"
	"testing"

	softft "repro"
)

// quickstartSource mirrors examples/quickstart/main.go: a contrast filter
// whose running average and loop counter are the loop-carried state.
const quickstartSource = `
global int in[1024];
global int params[1];
global int out[1024];

void main() {
	int n = params[0];
	int avg = 0;
	for (int i = 0; i < n; i += 1) {
		avg = (avg * 7 + in[i]) >> 3;
		int v = in[i] + ((in[i] - avg) >> 1);
		out[i] = clampi(v, 0, 255);
	}
}`

func ramp(n int, step int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = (int64(i) * step) % 256
	}
	return out
}

// runBenchmark performs the shared protect-and-run spine of the benchmark
// examples and returns a printable fingerprint of everything observable.
func runBenchmark(t *testing.T, name string, mode softft.Mode) string {
	t.Helper()
	bench, err := softft.GetBenchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bench.Program()
	if err != nil {
		t.Fatal(err)
	}
	var prof *softft.Profile
	if mode == softft.DuplicationWithValueChecks {
		if prof, err = prog.ProfileValues(bench.TrainInput()); err != nil {
			t.Fatal(err)
		}
	}
	hard, stats, err := prog.Protect(mode, prof)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hard.Run(bench.TestInput())
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.Ints("out")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("%s: empty output", name)
	}
	return fmt.Sprintf("%s mode=%s statevars=%d dup=%d valchecks=%d cycles=%d out=%v",
		name, mode, stats.StateVars, stats.DuplicatedInstrs, stats.ValueChecks,
		res.Cycles, out[:min(16, len(out))])
}

func TestExamples(t *testing.T) {
	cases := []struct {
		example string
		run     func(t *testing.T) string
	}{
		{"quickstart", func(t *testing.T) string {
			prog, err := softft.Compile("contrast", quickstartSource)
			if err != nil {
				t.Fatal(err)
			}
			train := softft.NewInput().SetInts("in", ramp(1024, 3)).SetInts("params", []int64{1024})
			test := softft.NewInput().SetInts("in", ramp(512, 7)).SetInts("params", []int64{512})
			prof, err := prog.ProfileValues(train)
			if err != nil {
				t.Fatal(err)
			}
			hard, stats, err := prog.Protect(softft.DuplicationWithValueChecks, prof)
			if err != nil {
				t.Fatal(err)
			}
			res, err := hard.Run(test)
			if err != nil {
				t.Fatal(err)
			}
			out, err := res.Ints("out")
			if err != nil {
				t.Fatal(err)
			}
			if len(out) == 0 || stats.StateVars == 0 {
				t.Fatalf("degenerate quickstart result: %d outputs, %d state vars", len(out), stats.StateVars)
			}
			return fmt.Sprintf("quickstart statevars=%d checks=%d cycles=%d out=%v",
				stats.StateVars, stats.ValueChecks, res.Cycles, out[:16])
		}},
		{"audio", func(t *testing.T) string {
			// examples/audio: g721dec under duplication only (no profile).
			return runBenchmark(t, "g721dec", softft.DuplicationOnly)
		}},
		{"clustering", func(t *testing.T) string {
			// examples/clustering: kmeans under duplication + value checks;
			// additionally pin that the fault-free clustering is sane.
			fp := runBenchmark(t, "kmeans", softft.DuplicationWithValueChecks)
			bench, err := softft.GetBenchmark("kmeans")
			if err != nil {
				t.Fatal(err)
			}
			prog, err := bench.Program()
			if err != nil {
				t.Fatal(err)
			}
			res, err := prog.Run(bench.TestInput())
			if err != nil {
				t.Fatal(err)
			}
			labels, err := res.Ints("out")
			if err != nil {
				t.Fatal(err)
			}
			counts := map[int64]int{}
			for _, l := range labels[:96] {
				counts[l]++
			}
			if len(counts) < 2 {
				t.Fatalf("kmeans degenerated to %d cluster(s)", len(counts))
			}
			return fp
		}},
		{"controlflow", func(t *testing.T) string {
			// examples/controlflow: segm with value checks plus CFC layer.
			bench, err := softft.GetBenchmark("segm")
			if err != nil {
				t.Fatal(err)
			}
			prog, err := bench.Program()
			if err != nil {
				t.Fatal(err)
			}
			prof, err := prog.ProfileValues(bench.TrainInput())
			if err != nil {
				t.Fatal(err)
			}
			full, st, err := prog.Protect(softft.Compose(softft.DuplicationWithValueChecks, softft.ControlFlowChecks), prof)
			if err != nil {
				t.Fatal(err)
			}
			if st.CFCChecks == 0 {
				t.Fatalf("CFC instrumented nothing: %+v", st)
			}
			res, err := full.Run(bench.TestInput())
			if err != nil {
				t.Fatal(err)
			}
			out, err := res.Ints("out")
			if err != nil {
				t.Fatal(err)
			}
			if len(out) == 0 {
				t.Fatal("segm: empty output")
			}
			return fmt.Sprintf("segm cfcchecks=%d cycles=%d out=%v",
				st.CFCChecks, res.Cycles, out[:min(16, len(out))])
		}},
		{"imaging", func(t *testing.T) string {
			// examples/imaging: jpegdec across all four protection modes;
			// fault-free outputs must agree, cycles must be recorded.
			bench, err := softft.GetBenchmark("jpegdec")
			if err != nil {
				t.Fatal(err)
			}
			prog, err := bench.Program()
			if err != nil {
				t.Fatal(err)
			}
			prof, err := prog.ProfileValues(bench.TrainInput())
			if err != nil {
				t.Fatal(err)
			}
			fp := ""
			var ref []int64
			for _, mode := range []softft.Mode{
				softft.Original,
				softft.DuplicationOnly,
				softft.DuplicationWithValueChecks,
				softft.FullDuplication,
			} {
				p := prog
				if mode != softft.Original {
					if p, _, err = prog.Protect(mode, prof); err != nil {
						t.Fatal(err)
					}
				}
				res, err := p.Run(bench.TestInput())
				if err != nil {
					t.Fatal(err)
				}
				out, err := res.Ints("out")
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = out
				} else {
					for i := range ref {
						if ref[i] != out[i] {
							t.Fatalf("mode %s changed fault-free out[%d]: %d != %d", mode, i, out[i], ref[i])
						}
					}
				}
				fp += fmt.Sprintf("%s=%dcy ", mode, res.Cycles)
			}
			return fp
		}},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.example, func(t *testing.T) {
			first := tc.run(t)
			if first == "" {
				t.Fatal("empty fingerprint")
			}
			if again := tc.run(t); again != first {
				t.Fatalf("example path not deterministic:\n1st: %s\n2nd: %s", first, again)
			}
		})
	}
}
