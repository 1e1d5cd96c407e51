package vm

import "repro/internal/ir"

// TimingConfig parameterizes the performance model: a dependence-aware,
// width-limited issue model with a direct-mapped data cache and a 2-bit
// branch predictor. It is the stand-in for the paper's gem5 out-of-order ARM
// configuration (Table II); only relative runtimes are meaningful.
type TimingConfig struct {
	IssueWidth int // instructions per cycle (Table II: 2)

	// Latencies in cycles.
	LatInt    int64 // add/sub/bitwise/compare
	LatMul    int64
	LatDiv    int64
	LatFAdd   int64
	LatFMul   int64
	LatFDiv   int64
	LatIntrin int64 // sqrt/exp/log/pow
	LatLoad   int64 // L1 hit
	LatStore  int64

	MissPenalty    int64 // D-cache miss
	BranchPenalty  int64 // misprediction
	CacheLines     int   // direct-mapped line count
	CacheLineWords int   // words per line
	PredictorSlots int   // branch predictor table size
	CallOverhead   int64 // fixed cycles per call
	CheckLatency   int64 // latency of check instructions (compare + branch)
}

// DefaultTiming mirrors Table II at word granularity: 2-wide issue, 32KB
// D-cache (512 lines x 8 words x 8 bytes), modest ALU latencies.
func DefaultTiming() TimingConfig {
	return TimingConfig{
		IssueWidth:     2,
		LatInt:         1,
		LatMul:         3,
		LatDiv:         12,
		LatFAdd:        3,
		LatFMul:        4,
		LatFDiv:        15,
		LatIntrin:      20,
		LatLoad:        2,
		LatStore:       1,
		MissPenalty:    30,
		BranchPenalty:  10,
		CacheLines:     512,
		CacheLineWords: 8,
		PredictorSlots: 1024,
		CallOverhead:   2,
		CheckLatency:   1,
	}
}

// timing tracks cycle accounting for one run.
type timing struct {
	cfg TimingConfig

	cursor   int64 // current issue cycle
	slotUsed int   // instructions issued at cursor
	maxDone  int64 // latest completion time seen

	cacheTags []uint64 // direct-mapped tag store; 0 = invalid, tag+1 stored
	predictor []uint8  // 2-bit saturating counters
	width     int      // cfg.IssueWidth, hoisted out of the embedded struct

	// Strength-reduced index math for the common power-of-two geometry.
	// The default config (8-word lines, 512 lines, 1024 predictor slots)
	// would otherwise pay two hardware divides on every memory access.
	lineShift uint   // log2(CacheLineWords); valid when pow2 is set
	slotMask  uint64 // len(cacheTags)-1; valid when pow2 is set
	pow2      bool   // CacheLineWords and CacheLines are powers of two
	predMask  int    // len(predictor)-1 when a power of two, else -1
}

func newTiming(cfg TimingConfig) *timing {
	t := &timing{
		cfg:       cfg,
		cacheTags: make([]uint64, cfg.CacheLines),
		predictor: make([]uint8, cfg.PredictorSlots),
		predMask:  -1,
		width:     cfg.IssueWidth,
	}
	if isPow2(cfg.CacheLineWords) && isPow2(cfg.CacheLines) {
		t.pow2 = true
		t.lineShift = log2(cfg.CacheLineWords)
		t.slotMask = uint64(cfg.CacheLines - 1)
	}
	if isPow2(cfg.PredictorSlots) {
		t.predMask = cfg.PredictorSlots - 1
	}
	return t
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func log2(n int) uint {
	var s uint
	for n > 1 {
		n >>= 1
		s++
	}
	return s
}

func (t *timing) reset() {
	t.cursor, t.slotUsed, t.maxDone = 0, 0, 0
	for i := range t.cacheTags {
		t.cacheTags[i] = 0
	}
	for i := range t.predictor {
		t.predictor[i] = 1 // weakly not-taken
	}
}

// cycles returns the total cycle count so far.
func (t *timing) cycles() int64 {
	if t.maxDone > t.cursor {
		return t.maxDone
	}
	return t.cursor
}

// issue models issuing one instruction whose operands become ready at
// opsReady and which takes lat cycles; it returns the completion time.
func (t *timing) issue(opsReady int64, lat int64) (done int64) {
	t.cursor, t.slotUsed, t.maxDone, done = issueAt(t.cursor, t.slotUsed, t.width, t.maxDone, opsReady, lat)
	return done
}

// issueAt is the issue step both engines take for every dynamic
// instruction, over the cursor state passed by value: issue cycle cur, slot
// count slot and completion horizon maxDone. It returns the updated state
// and the instruction's completion time. execLoop keeps that state in locals
// and flushes it to the timing struct at every escape point; the tree
// interpreter calls it through timing.issue.
func issueAt(cur int64, slot, width int, maxDone, opsReady, lat int64) (int64, int, int64, int64) {
	at := cur
	if opsReady > at {
		at = opsReady
		cur = opsReady
		slot = 0
	}
	slot++
	if slot >= width {
		cur++
		slot = 0
	}
	done := at + lat
	if done > maxDone {
		maxDone = done
	}
	return cur, slot, maxDone, done
}

// access models a data-cache access at word address addr, returning the
// access latency (hit or miss).
func (t *timing) access(addr uint64) int64 {
	var line, slot uint64
	if t.pow2 {
		line = addr >> t.lineShift
		slot = line & t.slotMask
	} else {
		line = addr / uint64(t.cfg.CacheLineWords)
		slot = line % uint64(len(t.cacheTags))
	}
	if t.cacheTags[slot] == line+1 {
		return t.cfg.LatLoad
	}
	t.cacheTags[slot] = line + 1
	return t.cfg.LatLoad + t.cfg.MissPenalty
}

// branch models a branch with the 2-bit predictor; uid identifies the
// static branch, taken is the outcome.
func (t *timing) branch(uid int, taken bool) {
	t.cursor, t.slotUsed = branchAt(t.cursor, t.slotUsed, t.predictor, t.predMask, uid, taken, t.cfg.BranchPenalty)
}

// branchAt is the branch step both engines take, over the same by-value
// cursor state as issueAt: predictor slot uid&predMask (uid modulo the table
// size when that is not a power of two), and a misprediction stalls the
// front end for bpen cycles.
func branchAt(cur int64, slot int, pred []uint8, predMask, uid int, taken bool, bpen int64) (int64, int) {
	var s int
	if predMask >= 0 {
		s = uid & predMask
	} else {
		s = uid % len(pred)
	}
	p := pred[s]
	if (p >= 2) != taken {
		cur += bpen
		slot = 0
	}
	if taken && p < 3 {
		pred[s] = p + 1
	} else if !taken && p > 0 {
		pred[s] = p - 1
	}
	return cur, slot
}

// latKind indexes a machine's latency table (Machine.lats); both engines
// classify an instruction with latKindOf, the engine once at lowering time.
type latKind uint8

const (
	latInt latKind = iota
	latMul
	latDiv
	latFAdd
	latFMul
	latFDiv
	latIntrin
	latStore
	latCheck
	latCount
)

// latTableFrom bakes a TimingConfig into a dense latency table.
func latTableFrom(c TimingConfig) [latCount]int64 {
	var t [latCount]int64
	t[latInt] = c.LatInt
	t[latMul] = c.LatMul
	t[latDiv] = c.LatDiv
	t[latFAdd] = c.LatFAdd
	t[latFMul] = c.LatFMul
	t[latFDiv] = c.LatFDiv
	t[latIntrin] = c.LatIntrin
	t[latStore] = c.LatStore
	t[latCheck] = c.CheckLatency
	return t
}

// latKindOf returns in's latency class. Loads are absent: their latency is
// the cache access's (timing.access).
func latKindOf(in *ir.Instr) latKind {
	switch in.Op {
	case ir.OpAdd, ir.OpSub:
		if in.Ty == ir.F64 {
			return latFAdd
		}
		return latInt
	case ir.OpMul:
		if in.Ty == ir.F64 {
			return latFMul
		}
		return latMul
	case ir.OpDiv, ir.OpRem:
		if in.Ty == ir.F64 {
			return latFDiv
		}
		return latDiv
	case ir.OpIToF, ir.OpFToI:
		return latFAdd
	case ir.OpIntrinsic:
		switch in.Intrinsic {
		case ir.IntrIAbs, ir.IntrIMin, ir.IntrIMax, ir.IntrClampI, ir.IntrFMin, ir.IntrFMax, ir.IntrFAbs:
			return latInt
		}
		return latIntrin
	case ir.OpStore:
		return latStore
	case ir.OpCmpCheck, ir.OpRangeCheck, ir.OpValCheck:
		return latCheck
	}
	return latInt
}
