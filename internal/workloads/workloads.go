// Package workloads defines the 13 soft-computing benchmarks of the paper's
// Table I, rewritten in the mini-C language on synthetic inputs (the
// original mediabench/mibench/SD-VBS/svmlight binaries and inputs are not
// redistributable; the kernels preserve the loop structure, loop-carried
// state and table lookups of the originals, which is what the protection
// analyses key on).
//
// Each workload supplies: source code, deterministic train/test input
// binding (different sizes, as in Table I), the output global, and a
// fidelity measure with its acceptance threshold.
package workloads

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/fidelity"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/vm"
)

// InputKind selects the profiling (train) or evaluation (test) input.
type InputKind uint8

// Input kinds. Profiling uses Train; fault injection uses Test (and the
// cross-validation experiment swaps them). Cross is a third, held-out
// input (test-sized, different content) used by the multi-input profiling
// extension to measure false positives on data no profile has seen.
const (
	Train InputKind = iota
	Test
	Cross
)

func (k InputKind) String() string {
	switch k {
	case Train:
		return "train"
	case Cross:
		return "cross"
	}
	return "test"
}

// Workload is one benchmark.
type Workload struct {
	Name     string
	Suite    string
	Category string
	Desc     string
	Source   string
	// Output is the name of the global holding the program's result.
	Output string
	// Judge is the fidelity acceptance rule from Table I.
	Judge fidelity.Judgment
	// InputDesc describes train/test inputs for the Table I rendering.
	InputDesc string

	// Bind installs the inputs of the given kind on a machine.
	Bind func(m *vm.Machine, kind InputKind) error
	// Measure computes the fidelity metric of a test output against the
	// fault-free golden output (both raw output-global words); kind selects
	// the active input's dimensions.
	Measure func(golden, test []uint64, kind InputKind) float64

	// Compile cache. Guarded by compileOnce: concurrent callers (e.g.
	// several in-process campaign workers building programs for the same
	// benchmark) must not race on the lazy init.
	compileOnce sync.Once
	mod         *ir.Module
	compileErr  error
}

// Compile returns the workload's SSA module (cached; callers Clone before
// mutating). Safe for concurrent use.
func (w *Workload) Compile() (*ir.Module, error) {
	w.compileOnce.Do(func() {
		m, err := lang.Compile(w.Name, w.Source)
		if err != nil {
			w.compileErr = fmt.Errorf("workload %s: %w", w.Name, err)
			return
		}
		w.mod = m
	})
	return w.mod, w.compileErr
}

// Acceptable reports whether a fidelity value passes this workload's
// threshold.
func (w *Workload) Acceptable(v float64) bool { return w.Judge.Acceptable(v) }

// Target adapts the workload, with inputs of the given kind, to a fault
// injection target.
func (w *Workload) Target(kind InputKind) fault.Target {
	return fault.Target{
		Name:       w.Name,
		Bind:       func(m *vm.Machine) error { return w.Bind(m, kind) },
		Output:     w.Output,
		Measure:    func(golden, test []uint64) float64 { return w.Measure(golden, test, kind) },
		Acceptable: w.Acceptable,
	}
}

var registry []*Workload

// tableIOrder is the paper's Table I presentation order. Registration
// order follows Go file initialization, so register sorts explicitly.
var tableIOrder = map[string]int{
	"jpegenc": 0, "jpegdec": 1, "tiff2bw": 2, "segm": 3, "tex_synth": 4,
	"g721enc": 5, "g721dec": 6, "mp3dec": 7, "mp3enc": 8,
	"h264enc": 9, "h264dec": 10, "kmeans": 11, "svm": 12,
}

func register(w *Workload) *Workload {
	registry = append(registry, w)
	sort.Slice(registry, func(i, j int) bool {
		return tableIOrder[registry[i].Name] < tableIOrder[registry[j].Name]
	})
	return w
}

// All returns every workload in Table I order.
func All() []*Workload { return registry }

// ByName returns the named workload or nil.
func ByName(name string) *Workload {
	for _, w := range registry {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// Names lists all workload names in order.
func Names() []string {
	out := make([]string, len(registry))
	for i, w := range registry {
		out[i] = w.Name
	}
	return out
}

// ---- deterministic input synthesis --------------------------------------

// xorshift is a tiny deterministic PRNG so inputs never depend on package
// math/rand internals.
type xorshift uint64

func newRand(seed uint64) *xorshift {
	x := xorshift(seed*2685821657736338717 + 1)
	return &x
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// intn returns a value in [0, n).
func (x *xorshift) intn(n int) int64 { return int64(x.next() % uint64(n)) }

// float returns a value in [0, 1).
func (x *xorshift) float() float64 {
	return float64(x.next()>>11) / float64(1<<53)
}

// norm returns an approximately normal value (sum of uniforms).
func (x *xorshift) norm() float64 {
	s := 0.0
	for i := 0; i < 6; i++ {
		s += x.float()
	}
	return (s - 3) / math.Sqrt(0.5)
}

// synthImage produces a deterministic natural-looking 8-bit image: smooth
// gradients plus texture plus a few hard edges (so DCT/quantization and
// segmentation have realistic structure).
func synthImage(w, h int, seed uint64) []int64 {
	rng := newRand(seed)
	img := make([]int64, w*h)
	// Random blob centers for structure.
	type blob struct{ cx, cy, r, v float64 }
	blobs := make([]blob, 4)
	for i := range blobs {
		blobs[i] = blob{
			cx: float64(rng.intn(w)), cy: float64(rng.intn(h)),
			r: 4 + float64(rng.intn(w/2+1)), v: 40 + float64(rng.intn(160)),
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 60 + 90*float64(x)/float64(w) + 40*math.Sin(float64(y)/5)
			for _, b := range blobs {
				dx, dy := float64(x)-b.cx, float64(y)-b.cy
				if dx*dx+dy*dy < b.r*b.r {
					v = b.v + 10*math.Sin(float64(x)/3)
				}
			}
			v += rng.norm() * 4
			img[y*w+x] = clamp255(int64(v))
		}
	}
	return img
}

// synthAudio produces a deterministic PCM16-ish waveform: a few sine
// partials with slow amplitude modulation plus noise.
func synthAudio(n int, seed uint64) []int64 {
	rng := newRand(seed)
	f1 := 0.01 + rng.float()*0.05
	f2 := 0.002 + rng.float()*0.01
	f3 := 0.07 + rng.float()*0.1
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		t := float64(i)
		env := 0.6 + 0.4*math.Sin(t*f2)
		v := env * (6000*math.Sin(t*f1*2*math.Pi) + 2500*math.Sin(t*f3*2*math.Pi))
		v += rng.norm() * 60
		if v > 32767 {
			v = 32767
		}
		if v < -32768 {
			v = -32768
		}
		out[i] = int64(v)
	}
	return out
}

// synthClusters produces n points in d dimensions drawn around k centers,
// with the generating label of each point. Coordinates are scaled ints.
func synthClusters(n, d, k int, seed uint64) (points []int64, labels []int64) {
	rng := newRand(seed)
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, d)
		for j := 0; j < d; j++ {
			centers[c][j] = float64(rng.intn(2000)) - 1000
		}
	}
	points = make([]int64, n*d)
	labels = make([]int64, n)
	for i := 0; i < n; i++ {
		c := int(rng.intn(k))
		labels[i] = int64(c)
		for j := 0; j < d; j++ {
			points[i*d+j] = int64(centers[c][j] + rng.norm()*60)
		}
	}
	return points, labels
}

// synthLinear produces linearly separable (with margin noise) examples for
// the SVM workload: features in [-1000, 1000], labels ±1 from a random
// hyperplane.
func synthLinear(n, d int, seed uint64) (feats []int64, labels []int64) {
	rng := newRand(seed)
	wvec := make([]float64, d)
	for j := range wvec {
		wvec[j] = rng.norm()
	}
	feats = make([]int64, n*d)
	labels = make([]int64, n)
	for i := 0; i < n; i++ {
		var dot float64
		for j := 0; j < d; j++ {
			v := float64(rng.intn(2001)) - 1000
			feats[i*d+j] = int64(v)
			dot += wvec[j] * v
		}
		if dot+rng.norm()*50 >= 0 {
			labels[i] = 1
		} else {
			labels[i] = -1
		}
	}
	return feats, labels
}

func clamp255(v int64) int64 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}

// wordsToInts reinterprets raw output words as signed integers.
func wordsToInts(ws []uint64) []int64 {
	out := make([]int64, len(ws))
	for i, w := range ws {
		out[i] = int64(w)
	}
	return out
}

func bindInts(m *vm.Machine, name string, data []int64) error {
	return m.BindInputInts(name, data)
}
