package vm_test

// Fused patterns must pay for their handlers. A pattern stays in the fuseOf
// table only while it carries at least 1% of some registered scheme's fused
// steps, summed over the Test-input golden runs of every workload; below
// that its handler is engine code that buys nothing, and the pair runs just
// as exactly through the unfused dispatch.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// minPatternShare is the keep rule's threshold.
const minPatternShare = 0.01

// fusionCensus replays fused dispatch over a traced (hence unfused) run: an
// instruction that heads a pair and was not itself consumed as a partner
// fuses with the next traced instruction, exactly as execLoop pairs pc with
// pc+1 or a jump with its phi edge. The one exception is a function's first
// instruction: execLoop arms its fused gate at the first event check of each
// activation, so that instruction always runs unfused.
type fusionCensus struct {
	heads    map[*ir.Instr]string
	counts   map[string]int64
	consumed bool
}

func (c *fusionCensus) Trace(_ int64, _ string, in *ir.Instr, _ uint64) {
	if c.consumed {
		c.consumed = false
		return
	}
	if entry := in.Blk.Fn.Entry(); in == entry.Instrs[0] {
		return
	}
	if p, ok := c.heads[in]; ok {
		c.counts[p]++
		c.consumed = true
	}
}

func TestFusedPatternsCarryWeight(t *testing.T) {
	if raceEnabled {
		t.Skip("census of every workload x scheme is too slow under the race detector")
	}
	best := map[string]float64{}
	bestScheme := map[string]string{}
	for _, mode := range core.SchemeNames() {
		counts := map[string]int64{}
		var total int64
		for _, w := range workloads.All() {
			prot := protectedModule(t, w, mode)
			mach, err := vm.New(prot, vm.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Bind(mach, workloads.Test); err != nil {
				t.Fatal(err)
			}
			census := &fusionCensus{heads: vm.FusedHeads(mach), counts: counts}
			mach.Reset()
			before := sumCounts(counts)
			if res := mach.Run(vm.RunOptions{CountChecks: true, Tracer: census}); res.Trap != nil {
				t.Fatalf("%s/%s: traced run trapped: %v", w.Name, mode, res.Trap)
			}
			replayed := sumCounts(counts) - before

			// The replay must count exactly what the engine's fused dispatch
			// executes, or the shares below measure the wrong thing.
			mach.Reset()
			if res := mach.Run(vm.RunOptions{CountChecks: true}); res.Trap != nil {
				t.Fatalf("%s/%s: fused run trapped: %v", w.Name, mode, res.Trap)
			}
			if got := mach.FusedSteps(); got != replayed {
				t.Fatalf("%s/%s: census replayed %d fused steps, engine executed %d", w.Name, mode, replayed, got)
			}
			total += replayed
		}
		for _, p := range vm.FusePatterns() {
			share := float64(counts[p]) / float64(total)
			if _, ok := best[p]; !ok || share > best[p] {
				best[p], bestScheme[p] = share, mode
			}
		}
	}

	var lines []string
	for _, p := range vm.FusePatterns() {
		lines = append(lines, fmt.Sprintf("%-12s %6.2f%% (%s)", p, 100*best[p], bestScheme[p]))
		if best[p] < minPatternShare {
			t.Errorf("pattern %s carries at most %.2f%% of a scheme's fused steps (%s), below the %.0f%% keep rule: delete its handler",
				p, 100*best[p], bestScheme[p], 100*minPatternShare)
		}
	}
	sort.Strings(lines)
	t.Logf("largest share of any scheme's fused steps per pattern:\n%s", strings.Join(lines, "\n"))
}

func sumCounts(m map[string]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}
