package campaignd

// The coordinator: job/shard state machine with time-bounded leases.
//
// Scheduling is FIFO over jobs and index order over shards. A shard's
// lifecycle is queued -> leased -> (done | queued again), with requeues
// gated by capped exponential backoff and bounded by MaxAttempts. Lease
// expiry is lazy — every request first sweeps expired leases — plus an
// explicit Tick for long idle stretches. All state transitions happen
// under one mutex; the work itself (campaign execution) lives in worker
// processes, so the lock only ever guards bookkeeping and journal
// replay/consolidation, never trial execution.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	softft "repro"

	"repro/internal/fault"
)

// Config tunes a Coordinator. The zero value is usable: every field has
// a default chosen for local multi-process operation.
type Config struct {
	// Dir holds the per-shard journals. Defaults to the working directory.
	Dir string
	// LeaseTTL is how long a shard lease lives between heartbeats; a
	// worker that misses it is presumed dead and the shard is reassigned.
	// Default 10s.
	LeaseTTL time.Duration
	// BaseBackoff/MaxBackoff shape the capped exponential delay before a
	// failed or expired shard is re-granted: Base<<(attempt-1), capped at
	// Max. Defaults 500ms and 30s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxAttempts bounds grants per shard; exhausting it fails the whole
	// job (the shard is presumed poisonous). Default 12.
	MaxAttempts int
	// DefaultShards is the shard count for jobs that do not choose one.
	// Default 4.
	DefaultShards int
	// Clock is the time source (test hook). Default time.Now.
	Clock func() time.Time
	// Logf, when non-nil, receives one line per scheduling event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 500 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 12
	}
	if c.DefaultShards <= 0 {
		c.DefaultShards = 4
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Shard states.
const (
	shardQueued  = "queued"
	shardLeased  = "leased"
	shardDone    = "done"
	shardSkipped = "skipped" // early stop before the shard ever ran
)

type lease struct {
	id      string
	worker  string
	expires time.Time
}

type shard struct {
	job      *job
	index    int
	lo, hi   int
	state    string
	attempt  int       // grants so far
	gate     time.Time // backoff: no re-grant before this
	lease    *lease
	journal  string   // current attempt's journal path
	journals []string // every attempt's path, oldest first
	// Streamed progress (provisional; the journal is authoritative).
	done, covered, usdc int
	lastErr             string
}

type job struct {
	id       string
	spec     JobSpec
	shards   []*shard
	stopping bool // early stop: revoke leases, grant nothing
	finished bool
	out      *softft.Outcomes
	failure  string
}

// Coordinator owns the job table and implements the scheduling protocol.
// It is safe for concurrent use; see Handler for the HTTP binding.
type Coordinator struct {
	cfg Config

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string          // submission order, the scheduling priority
	leases map[string]*shard // active lease ID -> holder
	nextID int
	m      metrics
}

// New creates a Coordinator, creating cfg.Dir if needed.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &Coordinator{
		cfg:    cfg,
		jobs:   make(map[string]*job),
		leases: make(map[string]*shard),
	}, nil
}

// shardRanges splits [0,trials) into n contiguous subranges, remainder
// spread over the leading shards. Workers must see the exact same split
// only through lease grants, so this is private to the coordinator.
func shardRanges(trials, n int) [][2]int {
	per, rem := trials/n, trials%n
	ranges := make([][2]int, 0, n)
	lo := 0
	for s := 0; s < n; s++ {
		hi := lo + per
		if s < rem {
			hi++
		}
		ranges = append(ranges, [2]int{lo, hi})
		lo = hi
	}
	return ranges
}

// Submit validates a spec and enqueues it. Validation is eager — a bad
// benchmark or scheme name fails here, not on some worker later.
func (co *Coordinator) Submit(spec JobSpec) (string, error) {
	if _, err := softft.GetBenchmark(spec.Bench); err != nil {
		return "", err
	}
	if _, err := softft.ParseMode(spec.Mode); err != nil {
		return "", err
	}
	if spec.FaultModel != "" {
		if _, err := fault.LookupModel(spec.FaultModel); err != nil {
			return "", err
		}
	}
	if spec.Trials <= 0 {
		return "", fmt.Errorf("campaignd: trials must be positive, got %d", spec.Trials)
	}
	if spec.Shards < 0 {
		return "", fmt.Errorf("campaignd: negative shard count %d", spec.Shards)
	}
	if spec.Shards == 0 {
		spec.Shards = co.cfg.DefaultShards
	}
	if spec.Shards > spec.Trials {
		spec.Shards = spec.Trials
	}

	co.mu.Lock()
	defer co.mu.Unlock()
	co.nextID++
	j := &job{id: fmt.Sprintf("job%03d", co.nextID), spec: spec}
	for s, r := range shardRanges(spec.Trials, spec.Shards) {
		j.shards = append(j.shards, &shard{job: j, index: s, lo: r[0], hi: r[1], state: shardQueued})
	}
	co.jobs[j.id] = j
	co.order = append(co.order, j.id)
	co.m.JobsSubmitted++
	co.cfg.Logf("campaignd: %s submitted: %s/%s %d trials, %d shards", j.id, spec.Bench, spec.Mode, spec.Trials, spec.Shards)
	return j.id, nil
}

// Tick sweeps expired leases and finalizes any job that became finishable
// without a request arriving (e.g. early stop with all workers gone).
// The HTTP handlers sweep on every request, so Tick only matters across
// idle stretches; serve loops call it on a timer.
func (co *Coordinator) Tick() {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweep()
}

// sweep expires overdue leases and finalizes finishable jobs. Callers
// hold co.mu.
func (co *Coordinator) sweep() {
	now := co.cfg.Clock()
	for id, sh := range co.leases {
		if sh.lease == nil || sh.lease.id != id {
			delete(co.leases, id) // superseded entry
			continue
		}
		if now.After(sh.lease.expires) {
			co.cfg.Logf("campaignd: lease %s expired (worker %s, shard %d)", id, sh.lease.worker, sh.index)
			delete(co.leases, id)
			co.requeue(sh, now, "lease expired")
			co.m.LeaseExpiries++
		}
	}
	for _, jid := range co.order {
		co.maybeFinish(co.jobs[jid])
	}
}

// requeue returns a leased shard to the queue behind its backoff gate.
// Callers hold co.mu.
func (co *Coordinator) requeue(sh *shard, now time.Time, why string) {
	sh.lease = nil
	sh.state = shardQueued
	sh.lastErr = why
	backoff := co.cfg.BaseBackoff << uint(sh.attempt-1)
	if backoff > co.cfg.MaxBackoff || backoff <= 0 {
		backoff = co.cfg.MaxBackoff
	}
	sh.gate = now.Add(backoff)
}

// Lease grants the next available shard to a worker, or returns !OK.
func (co *Coordinator) Lease(worker string) leaseResponse {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweep()
	now := co.cfg.Clock()

	for _, jid := range co.order {
		j := co.jobs[jid]
		if j.finished || j.stopping {
			continue
		}
		for _, sh := range j.shards {
			if sh.state != shardQueued || now.Before(sh.gate) {
				continue
			}
			if sh.attempt >= co.cfg.MaxAttempts {
				co.fail(j, fmt.Sprintf("shard %d exhausted %d attempts (last error: %s)", sh.index, sh.attempt, sh.lastErr))
				break
			}
			return co.grant(j, sh, worker, now)
		}
	}
	return leaseResponse{}
}

// grant leases sh of j to worker. For re-grants it first consolidates
// every previous attempt's journal into the new attempt's path, so the
// new worker resumes the union of all completed work and any superseded
// worker is fenced off onto files nobody reads again. Callers hold co.mu.
func (co *Coordinator) grant(j *job, sh *shard, worker string, now time.Time) leaseResponse {
	sh.attempt++
	path := filepath.Join(co.cfg.Dir, fmt.Sprintf("%s-shard%02d-a%d.journal", j.id, sh.index, sh.attempt))
	resume := false
	if len(sh.journals) > 0 {
		decided, err := fault.ConsolidateShardJournals(path, sh.journals)
		if err != nil {
			// A corrupt journal set is unrecoverable for this shard;
			// re-granting would hit it again, so fail the job loudly.
			co.fail(j, fmt.Sprintf("shard %d journal consolidation: %v", sh.index, err))
			return leaseResponse{}
		}
		resume = decided > 0
		co.cfg.Logf("campaignd: %s shard %d attempt %d resumes %d decided trials", j.id, sh.index, sh.attempt, decided)
	}
	sh.journal = path
	sh.journals = append(sh.journals, path)
	sh.state = shardLeased
	id := fmt.Sprintf("%s-s%d-a%d", j.id, sh.index, sh.attempt)
	sh.lease = &lease{id: id, worker: worker, expires: now.Add(co.cfg.LeaseTTL)}
	co.leases[id] = sh
	co.m.LeaseGrants++
	if sh.attempt > 1 {
		co.m.Retries++
	}
	co.cfg.Logf("campaignd: %s shard %d [%d,%d) leased to %s (attempt %d)", j.id, sh.index, sh.lo, sh.hi, worker, sh.attempt)
	return leaseResponse{
		OK: true, JobID: j.id, Spec: j.spec,
		Shard: sh.index, Lo: sh.lo, Hi: sh.hi,
		Journal: path, Resume: resume,
		LeaseID: id, TTLMS: co.cfg.LeaseTTL.Milliseconds(),
	}
}

// Heartbeat renews a lease and folds streamed progress into the pooled
// early-stop decision. Stale lease IDs are fenced (!OK).
func (co *Coordinator) Heartbeat(req heartbeatRequest) heartbeatResponse {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweep()
	co.m.Heartbeats++

	sh, ok := co.leases[req.LeaseID]
	if !ok || sh.lease == nil || sh.lease.id != req.LeaseID {
		return heartbeatResponse{}
	}
	sh.lease.expires = co.cfg.Clock().Add(co.cfg.LeaseTTL)
	// OnProgress calls may arrive out of order; largest done wins.
	if req.Done > sh.done {
		sh.done, sh.covered, sh.usdc = req.Done, req.Covered, req.USDC
	}

	j := sh.job
	if !j.stopping {
		if done, covered, usdc := pooledCounts(j); fault.EarlyStop(done, covered, usdc, j.spec.TargetCI) {
			j.stopping = true
			co.m.EarlyStops++
			co.cfg.Logf("campaignd: %s early stop at %d pooled trials (target CI %.3f)", j.id, done, j.spec.TargetCI)
		}
	}
	return heartbeatResponse{OK: true, Stop: j.stopping}
}

// Complete records the end of a shard run. Completeness is decided by
// replaying the shard's journal, never by the worker's say-so: a shard is
// done when its journal holds a decision for every trial in its range (or
// the job is stopping, where partial shards are the point).
func (co *Coordinator) Complete(req completeRequest) completeResponse {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweep()

	sh, ok := co.leases[req.LeaseID]
	if !ok || sh.lease == nil || sh.lease.id != req.LeaseID {
		return completeResponse{}
	}
	delete(co.leases, req.LeaseID)
	j := sh.job
	now := co.cfg.Clock()

	decided := co.journalDecided(sh)
	switch {
	case decided == sh.hi-sh.lo:
		sh.lease = nil
		sh.state = shardDone
		co.cfg.Logf("campaignd: %s shard %d complete (%d trials)", j.id, sh.index, decided)
	case j.stopping:
		// A revoked shard keeps whatever it journaled; that partial
		// coverage is exactly what early stop asked for.
		sh.lease = nil
		sh.state = shardDone
		co.cfg.Logf("campaignd: %s shard %d stopped early with %d/%d trials", j.id, sh.index, decided, sh.hi-sh.lo)
	default:
		why := req.Err
		if why == "" {
			why = fmt.Sprintf("worker returned with %d/%d trials decided", decided, sh.hi-sh.lo)
		}
		co.requeue(sh, now, why)
		co.cfg.Logf("campaignd: %s shard %d incomplete, requeued: %s", j.id, sh.index, why)
	}
	co.maybeFinish(j)
	return completeResponse{OK: true}
}

// journalDecided replays a shard's current journal and counts decided
// trials (classified plus quarantined). Callers hold co.mu.
func (co *Coordinator) journalDecided(sh *shard) int {
	if sh.journal == "" {
		return 0
	}
	out, err := softft.MergeShardOutcomes([]string{sh.journal})
	if err != nil {
		return 0
	}
	n := 0
	for _, a := range out.Anomalies {
		if a.Trial >= sh.lo && a.Trial < sh.hi {
			n++
		}
	}
	return out.Trials + n
}

// pooledCounts sums streamed progress across a job's shards. Callers
// hold co.mu.
func pooledCounts(j *job) (done, covered, usdc int) {
	for _, sh := range j.shards {
		done += sh.done
		covered += sh.covered
		usdc += sh.usdc
	}
	return
}

// fail marks a job failed. Callers hold co.mu.
func (co *Coordinator) fail(j *job, why string) {
	if j.finished {
		return
	}
	j.finished = true
	j.failure = why
	co.m.JobsFailed++
	co.cfg.Logf("campaignd: %s failed: %s", j.id, why)
}

// maybeFinish merges and publishes a job whose shards are all settled:
// every shard done, or — when stopping — no shard leased (queued shards
// are skipped). Callers hold co.mu.
func (co *Coordinator) maybeFinish(j *job) {
	if j == nil || j.finished {
		return
	}
	for _, sh := range j.shards {
		switch sh.state {
		case shardDone, shardSkipped:
		case shardQueued:
			if !j.stopping {
				return
			}
			sh.state = shardSkipped
		default:
			return // leased
		}
	}
	// Merge every journal that exists, whatever its shard's final lease
	// state: a fenced or revoked worker's journal still holds validly
	// decided trials (that is the point of journaling), and replay keeps
	// only the intact prefix even if a zombie writer is mid-append. Only
	// the latest attempt's path per shard is read — consolidation made it
	// a superset of the earlier ones. Shards that were never leased (or
	// whose worker died before the first write) have no file and
	// contribute nothing.
	var paths []string
	for _, sh := range j.shards {
		if sh.journal == "" {
			continue
		}
		if _, err := os.Stat(sh.journal); err == nil {
			paths = append(paths, sh.journal)
		}
	}
	if len(paths) == 0 {
		co.fail(j, "no shard journaled any work")
		return
	}
	out, err := softft.MergeShardOutcomes(paths)
	if err != nil {
		co.fail(j, fmt.Sprintf("journal merge: %v", err))
		return
	}
	if j.stopping {
		// The coordinator, not any single campaign, made the stop
		// decision; project it onto the merged outcomes the same way a
		// single-process TargetCI run reports it.
		decided := out.Trials + len(out.Anomalies)
		out.EarlyStopped = true
		out.TrialsSaved = j.spec.Trials - decided
		out.Partial = false
	}
	j.finished = true
	j.out = out
	co.m.JobsDone++
	co.m.TrialsDecided += int64(out.Trials + len(out.Anomalies))
	co.cfg.Logf("campaignd: %s done: %s", j.id, out)
}

// Status returns the public view of one job, or ok=false.
func (co *Coordinator) Status(id string) (JobStatus, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweep()
	j, ok := co.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return co.status(j), true
}

// Jobs returns every job's status in submission order.
func (co *Coordinator) Jobs() []JobStatus {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweep()
	out := make([]JobStatus, 0, len(co.order))
	for _, jid := range co.order {
		out = append(out, co.status(co.jobs[jid]))
	}
	return out
}

// status renders a job. Callers hold co.mu.
func (co *Coordinator) status(j *job) JobStatus {
	st := JobStatus{JobID: j.id, Spec: j.spec, Outcomes: j.out, Failure: j.failure}
	switch {
	case j.finished && j.failure != "":
		st.State = "failed"
	case j.finished:
		st.State = "done"
	case j.stopping:
		st.State = "stopping"
	default:
		st.State = "running"
	}
	for _, sh := range j.shards {
		s := ShardStatus{Shard: sh.index, Lo: sh.lo, Hi: sh.hi, State: sh.state, Attempt: sh.attempt, Done: sh.done}
		if sh.lease != nil {
			s.Worker = sh.lease.worker
		}
		st.Shards = append(st.Shards, s)
	}
	st.Done, st.Covered, st.USDC = pooledCounts(j)
	if st.Done > 0 {
		st.CoverageCI[0], st.CoverageCI[1] = fault.Wilson(st.Covered, st.Done, 1.96)
		st.USDCCI[0], st.USDCCI[1] = fault.Wilson(st.USDC, st.Done, 1.96)
	} else {
		st.CoverageCI = [2]float64{0, 1}
		st.USDCCI = [2]float64{0, 1}
	}
	sort.Slice(st.Shards, func(a, b int) bool { return st.Shards[a].Shard < st.Shards[b].Shard })
	return st
}
