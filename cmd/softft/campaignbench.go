package main

// Campaign throughput benchmark (-bench-campaign): measures fault-injection
// trials per second for every built-in workload across the engine ×
// checkpoint × fusion × convergence grid and writes the
// BENCH_campaign.json artifact tracked in the repository, so the perf
// trajectory of the campaign path is recorded next to the code that moves
// it.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// campaignBenchRow is one cell of the workload × technique × engine ×
// checkpoint × fusion × convergence grid.
type campaignBenchRow struct {
	Workload     string  `json:"workload"`
	Technique    string  `json:"technique"`
	Engine       string  `json:"engine"`
	Checkpoint   bool    `json:"checkpoint"`
	Fused        bool    `json:"fused"`
	Converge     bool    `json:"converge"`
	Trials       int     `json:"trials"`
	GoldenDyn    int64   `json:"golden_dyn"`
	Seconds      float64 `json:"seconds"`
	TrialsPerSec float64 `json:"trials_per_sec"`
}

// campaignBenchArtifact is the BENCH_campaign.json schema. Speedup compares
// the fast engine's checkpointed (golden-cursor) over from-scratch
// throughput on the Original binary. FusionSpeedup* compare fused over
// unfused dispatch on otherwise-identical checkpointed cells (Original and
// FullDup), and ConvSpeedupFullDup compares the convergence fast-forward
// over a full-suffix run on the FullDup binary, whose masked trials
// re-converge with the golden ladder quickly. The geomeans are the
// campaign-level headlines.
type campaignBenchArtifact struct {
	Generated             string             `json:"generated"`
	GoVersion             string             `json:"go_version"`
	TrialsPerCell         int                `json:"trials_per_cell"`
	Workers               int                `json:"workers"`
	Seed                  int64              `json:"seed"`
	Rows                  []campaignBenchRow `json:"rows"`
	Speedup               map[string]float64 `json:"speedup_ckpt_vs_scratch"`
	SpeedupGeomean        float64            `json:"speedup_geomean"`
	FusionSpeedupOriginal map[string]float64 `json:"fusion_speedup_original"`
	FusionSpeedupFullDup  map[string]float64 `json:"fusion_speedup_fulldup"`
	FusionSpeedupGeomean  float64            `json:"fusion_speedup_geomean"`
	ConvSpeedupFullDup    map[string]float64 `json:"conv_speedup_fulldup_solo"`
	ConvSpeedupGeomean    float64            `json:"conv_speedup_fulldup_geomean"`
}

// benchReps is how many times each grid cell is measured; the fastest rep is
// recorded. Campaign cells run a fraction of a second, where a single GC
// pause or noisy neighbor skews a one-shot measurement by tens of percent —
// best-of-N is the standard antidote (the minimum estimates the undisturbed
// runtime).
const benchReps = 3

// runCampaignBench measures every cell with a single worker (so the numbers
// compare engine and scheduler speed, not host parallelism) and writes the
// artifact to path.
func runCampaignBench(path string, trials int, seed int64) error {
	if trials <= 0 {
		trials = 100
	}
	// Checkpointed cells (ckpt true) run on the shipped snapshot ladder:
	// convergence only fires at ladder crossings, so both ratios depend on
	// its density. The fuse/conv twins differ from their baseline cell in
	// exactly one knob, so each ratio isolates one mechanism.
	grid := []struct {
		key       string // rate-map key; "" for cells no ratio reads
		technique string
		engine    vm.EngineKind
		ckpt      bool
		fuse      int
		converge  int
	}{
		{"orig/ckpt", "Original", vm.EngineFast, true, 0, 0},
		{"orig/ckpt/nofuse", "Original", vm.EngineFast, true, -1, 0},
		{"orig/scratch", "Original", vm.EngineFast, false, 0, 0},
		{"", "Original", vm.EngineTree, false, 0, 0},
		{"fdup/ckpt", "FullDup", vm.EngineFast, true, 0, 0},
		{"fdup/ckpt/nofuse", "FullDup", vm.EngineFast, true, -1, 0},
		{"fdup/ckpt/noconv", "FullDup", vm.EngineFast, true, 0, -1},
	}
	art := &campaignBenchArtifact{
		Generated:             time.Now().UTC().Format(time.RFC3339),
		GoVersion:             runtime.Version(),
		TrialsPerCell:         trials,
		Workers:               1,
		Seed:                  seed,
		Speedup:               make(map[string]float64),
		FusionSpeedupOriginal: make(map[string]float64),
		FusionSpeedupFullDup:  make(map[string]float64),
		ConvSpeedupFullDup:    make(map[string]float64),
	}
	for _, w := range workloads.All() {
		mod, err := w.Compile()
		if err != nil {
			return err
		}
		mods := map[string]*ir.Module{"Original": mod}
		fdup := mod.Clone()
		if _, err := core.Protect(fdup, core.SchemeFullDup, nil, core.DefaultParams()); err != nil {
			return fmt.Errorf("%s: FullDup protect: %w", w.Name, err)
		}
		mods["FullDup"] = fdup

		rate := make(map[string]float64)
		for _, g := range grid {
			cfg := fault.DefaultConfig()
			cfg.Trials = trials
			cfg.Seed = seed
			cfg.Workers = 1
			cfg.Engine = g.engine
			if !g.ckpt {
				cfg.Checkpoints = -1
			}
			cfg.Fuse = g.fuse
			cfg.Converge = g.converge
			var rep *fault.Report
			secs := math.Inf(1)
			for r := 0; r < benchReps; r++ {
				start := time.Now()
				rr, err := fault.Run(context.Background(), w.Target(workloads.Test), mods[g.technique], g.technique, cfg)
				if err != nil {
					return fmt.Errorf("%s/%s/%s: %w", w.Name, g.technique, g.key, err)
				}
				if s := time.Since(start).Seconds(); s < secs {
					secs, rep = s, rr
				}
			}
			engine := "fast"
			if g.engine == vm.EngineTree {
				engine = "tree"
			}
			row := campaignBenchRow{
				Workload:     w.Name,
				Technique:    g.technique,
				Engine:       engine,
				Checkpoint:   g.ckpt,
				Fused:        g.fuse >= 0,
				Converge:     g.converge >= 0,
				Trials:       rep.Tally.N,
				GoldenDyn:    rep.GoldenDyn,
				Seconds:      secs,
				TrialsPerSec: float64(rep.Tally.N) / secs,
			}
			art.Rows = append(art.Rows, row)
			if g.key != "" {
				rate[g.key] = row.TrialsPerSec
			}
			fmt.Fprintf(os.Stderr, "bench-campaign %-10s %-8s %s ckpt=%-5v fuse=%-5v conv=%-5v %8.1f trials/s\n",
				w.Name, g.technique, engine, g.ckpt, g.fuse >= 0, g.converge >= 0, row.TrialsPerSec)
		}
		art.Speedup[w.Name] = rate["orig/ckpt"] / rate["orig/scratch"]
		art.FusionSpeedupOriginal[w.Name] = rate["orig/ckpt"] / rate["orig/ckpt/nofuse"]
		art.FusionSpeedupFullDup[w.Name] = rate["fdup/ckpt"] / rate["fdup/ckpt/nofuse"]
		art.ConvSpeedupFullDup[w.Name] = rate["fdup/ckpt"] / rate["fdup/ckpt/noconv"]
	}
	art.SpeedupGeomean = geomean(art.Speedup)
	art.FusionSpeedupGeomean = math.Sqrt(geomean(art.FusionSpeedupOriginal) * geomean(art.FusionSpeedupFullDup))
	art.ConvSpeedupGeomean = geomean(art.ConvSpeedupFullDup)
	fmt.Fprintf(os.Stderr, "bench-campaign geomean checkpoint speedup:  %.2fx\n", art.SpeedupGeomean)
	fmt.Fprintf(os.Stderr, "bench-campaign geomean fusion speedup:      %.2fx\n", art.FusionSpeedupGeomean)
	fmt.Fprintf(os.Stderr, "bench-campaign geomean convergence speedup: %.2fx\n", art.ConvSpeedupGeomean)

	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func geomean(m map[string]float64) float64 {
	logSum := 0.0
	for _, s := range m {
		logSum += math.Log(s)
	}
	return math.Exp(logSum / float64(len(m)))
}
