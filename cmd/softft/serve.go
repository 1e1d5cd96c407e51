package main

// The distributed-campaign subcommands: serve runs a coordinator, work runs
// a shard worker against one, and submit posts a job spec (optionally
// waiting for the merged report). All three are thin flag layers over
// internal/campaignd; see DESIGN.md "Campaign service".

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro"

	"repro/internal/campaignd"
)

const defaultCoordinator = "http://127.0.0.1:7077"

// submitPoll is how often `submit -wait` polls the job status.
const submitPoll = 200 * time.Millisecond

// logTo returns a campaignd Logf writing one line per event to w.
func logTo(w io.Writer) func(format string, args ...any) {
	return func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
}

// runServe runs a coordinator until ctx ends.
func runServe(ctx context.Context, args []string, _, stderr io.Writer) error {
	fs := flag.NewFlagSet("softft serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:7077", "listen address")
		dir         = fs.String("dir", "", "where per-shard journals live (default: working directory)")
		leaseTTL    = fs.Duration("lease-ttl", 10*time.Second, "a worker silent this long loses its shard")
		backoff     = fs.Duration("backoff", 500*time.Millisecond, "reassignment delay, doubling per attempt")
		maxBackoff  = fs.Duration("max-backoff", 30*time.Second, "cap on the reassignment delay")
		maxAttempts = fs.Int("max-attempts", 12, "grants per shard before the job fails")
		shards      = fs.Int("shards", 4, "default shard count for jobs that omit one")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	// The idle sweep below ticks every quarter TTL, and time.NewTicker
	// panics on a non-positive interval.
	if *leaseTTL/4 <= 0 {
		return usageError(fmt.Sprintf("-lease-ttl must be at least 4ns, got %v", *leaseTTL))
	}
	co, err := campaignd.New(campaignd.Config{
		Dir:           *dir,
		LeaseTTL:      *leaseTTL,
		BaseBackoff:   *backoff,
		MaxBackoff:    *maxBackoff,
		MaxAttempts:   *maxAttempts,
		DefaultShards: *shards,
		Logf:          logTo(stderr),
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: co.Handler()}
	fmt.Fprintf(stderr, "softft serve: listening on %s\n", ln.Addr())

	// Lease expiry is lazy (every request sweeps); the ticker covers idle
	// stretches in which no request arrives.
	go func() {
		tick := time.NewTicker(*leaseTTL / 4)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				co.Tick()
			}
		}
	}()
	go func() {
		<-ctx.Done()
		shutdown, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdown)
	}()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// runWork leases and executes shards until ctx ends.
func runWork(ctx context.Context, args []string, _, stderr io.Writer) error {
	fs := flag.NewFlagSet("softft work", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		coord   = fs.String("coordinator", defaultCoordinator, "coordinator base URL")
		id      = fs.String("id", "", "worker name in leases and logs (default host-pid)")
		poll    = fs.Duration("poll", 500*time.Millisecond, "idle delay between lease attempts")
		workers = fs.Int("workers", 0, "goroutines per shard campaign (0 = one per CPU)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	w := campaignd.NewWorker(campaignd.WorkerConfig{
		Coordinator:     *coord,
		ID:              *id,
		Poll:            *poll,
		CampaignWorkers: *workers,
		Logf:            logTo(stderr),
	})
	return w.Run(ctx)
}

// runSubmit posts one job spec. Without -wait it prints the job ID; with
// -wait it polls until the job settles and prints the merged report through
// reportOutcomes, so its stdout is byte-identical to the equivalent solo
// -inject run.
func runSubmit(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("softft submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		coord    = fs.String("coordinator", defaultCoordinator, "coordinator base URL")
		bench    = fs.String("bench", "", "built-in benchmark name")
		mode     = fs.String("mode", "original", "protection scheme (softft -mode syntax)")
		fmodel   = fs.String("fault-model", "", "registered fault model (default reg-flip)")
		inject   = fs.Int("inject", 0, "campaign size in trials")
		seed     = fs.Int64("seed", 2014, "campaign seed")
		shards   = fs.Int("shards", 0, "shard count (0 = coordinator default)")
		targetCI = fs.Float64("target-ci", 0, "streaming cross-shard early stop threshold (0 = off)")
		wait     = fs.Bool("wait", false, "poll until done, print the merged report")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *inject <= 0 {
		return fmt.Errorf("submit needs -inject N > 0")
	}
	bm, err := softft.GetBenchmark(*bench)
	if err != nil {
		return err
	}
	m, err := softft.ParseMode(*mode)
	if err != nil {
		return err
	}
	spec := campaignd.JobSpec{
		Bench:      bm.Name(),
		Mode:       *mode,
		FaultModel: *fmodel,
		Trials:     *inject,
		Seed:       *seed,
		Shards:     *shards,
		TargetCI:   *targetCI,
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := call(ctx, http.MethodPost, *coord+"/api/jobs", spec, &sub); err != nil {
		return err
	}
	if !*wait {
		fmt.Fprintln(stdout, sub.JobID)
		return nil
	}
	fmt.Fprintf(stderr, "softft submit: job %s\n", sub.JobID)
	for {
		var st campaignd.JobStatus
		if err := call(ctx, http.MethodGet, *coord+"/api/jobs/"+sub.JobID, nil, &st); err != nil {
			return err
		}
		switch st.State {
		case "done":
			reportOutcomes(stdout, stderr, bm.Name(), m, st.Outcomes, *targetCI)
			return nil
		case "failed":
			return fmt.Errorf("job %s failed: %s", sub.JobID, st.Failure)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("job %s: stopped waiting: %w", sub.JobID, ctx.Err())
		case <-time.After(submitPoll):
		}
	}
}

// call does one JSON request against the coordinator.
func call(ctx context.Context, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
