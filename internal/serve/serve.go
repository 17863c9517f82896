// Package serve is the asynchronous job-service layer of quditkit —
// the piece that turns the synchronous core.Processor.Submit façade
// into a shared near-term resource that many clients can hit at once,
// the operating model the DSN 2025 paper projects for emerging qudit
// processors.
//
// A Service owns a bounded, sharded job queue in front of one
// Processor. Submissions enter through Enqueue (or EnqueueAs with a
// tenant account), are assigned to a shard by circuit fingerprint,
// and are drained in batches through Processor.Submit by one worker
// goroutine per shard. Each shard schedules across tenants by
// weighted deficit round-robin within priority classes (see
// shardQueue): admission quotas and fair dequeue shares are enforced
// per tenant.Account, and a process without a tenant registry runs
// everything under one anonymous account. Every job walks the
// lifecycle Queued → Running → Done/Failed/Cancelled; CancelJob
// aborts a queued job immediately and a running one promptly via the
// context plumbed through core.WithContext.
//
// Scheduling only reorders *dispatch*: per-job seeds derive from
// circuit content and options, so results are byte-identical under
// any interleaving of tenants.
//
// Completed Results land in a content-addressed LRU cache keyed by
// (core.Fingerprint, core.OptionsDigest). Because every quditkit
// execution is deterministic in (processor seed, circuit, options), a
// cache hit is byte-identical to the re-simulation it replaces, so
// repeated submissions — the dominant pattern under heavy traffic —
// complete instantly without touching the simulator. Cached Results
// are shared across callers and must be treated as read-only.
//
// The same Service is exposed over JSON/HTTP by NewHandler (served by
// cmd/quditd); in-process callers use Enqueue/Await/Status/CancelJob
// and Stats directly.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"quditkit/internal/circuit"
	"quditkit/internal/core"
	"quditkit/internal/journal"
	"quditkit/internal/tenant"
)

// Service errors distinguishable by callers.
var (
	// ErrClosed is returned by Enqueue after Close has begun.
	ErrClosed = errors.New("serve: service closed")
	// ErrQueueFull is returned by Enqueue when the target shard's
	// bounded queue is at capacity — the backpressure signal.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrUnknownJob is returned for job IDs the service never issued.
	ErrUnknownJob = errors.New("serve: unknown job id")
	// ErrFinished is returned by CancelJob for jobs already settled.
	ErrFinished = errors.New("serve: job already finished")
)

// JobState is one stop in a job's lifecycle.
type JobState int

const (
	// Queued means the job sits in its shard's queue (or is being
	// batch-collected) and has not started executing.
	Queued JobState = iota
	// Running means a shard worker is executing the job.
	Running
	// Done means the job completed and its Result is available.
	Done
	// Failed means execution returned a non-cancellation error.
	Failed
	// Cancelled means the job was cancelled before or during execution.
	Cancelled
)

// String returns the state's stable lowercase name, used verbatim in
// the HTTP API.
func (s JobState) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// JobID identifies one enqueued job for Await/Status/CancelJob.
type JobID string

// Config sizes a Service. The zero value selects the defaults noted on
// each field.
type Config struct {
	// Shards is the number of independent queue+worker pairs. Jobs are
	// assigned to shards by circuit fingerprint, so identical
	// submissions serialize onto one shard and dedupe against the
	// cache instead of re-simulating concurrently. Default 2.
	Shards int
	// QueueDepth bounds each shard's queue; Enqueue returns
	// ErrQueueFull beyond it rather than blocking. Default 64.
	QueueDepth int
	// BatchSize caps how many queued jobs a worker drains into one
	// Processor.Submit call. Default 8.
	BatchSize int
	// CacheSize bounds the result cache (LRU entries). Zero selects
	// the default 256; negative disables caching.
	CacheSize int
	// RetainJobs bounds how many settled job records the service keeps
	// for Status/Await lookups; beyond it the oldest settled jobs are
	// forgotten (their IDs then return ErrUnknownJob) so a long-lived
	// daemon's memory stays bounded. Zero selects the default 4096;
	// negative retains everything.
	RetainJobs int
	// Journal, when non-nil, makes admissions durable: EnqueueJournaled
	// fsyncs each accepted submission (ID + verbatim wire payload)
	// before it becomes runnable, settlements append tombstones, and
	// Replay restores unsettled jobs after a restart. Nil disables
	// durability; plain Enqueue never journals.
	Journal *journal.Journal
	// JournalCompactEvery is the WAL tail length (records) past which a
	// settlement triggers snapshot compaction. Default 256; negative
	// disables automatic compaction.
	JournalCompactEvery int
	// Tenants, when non-nil, turns on multi-tenant enforcement: the
	// HTTP layer requires a registered X-API-Key, admissions reserve
	// against per-tenant quotas, and shard scheduling weighs tenants
	// by their configured weight/priority. Nil runs single-tenant:
	// everything executes under one anonymous unlimited account.
	Tenants *tenant.Registry
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	switch {
	case c.CacheSize == 0:
		c.CacheSize = 256
	case c.CacheSize < 0:
		c.CacheSize = 0 // disabled
	}
	switch {
	case c.RetainJobs == 0:
		c.RetainJobs = 4096
	case c.RetainJobs < 0:
		c.RetainJobs = 0 // unlimited
	}
	switch {
	case c.JournalCompactEvery == 0:
		c.JournalCompactEvery = 256
	case c.JournalCompactEvery < 0:
		c.JournalCompactEvery = int(^uint(0) >> 1) // never
	}
	return c
}

// JobStatus is a point-in-time snapshot of one job.
type JobStatus struct {
	// ID is the job's identifier.
	ID JobID
	// State is the lifecycle state at snapshot time.
	State JobState
	// Cached reports whether the job's Result came from the cache.
	Cached bool
	// Err is the terminal error of a Failed or Cancelled job.
	Err error
}

// Stats aggregates service counters for monitoring; served as JSON at
// GET /v1/stats.
type Stats struct {
	// Enqueued counts accepted submissions since startup.
	Enqueued uint64 `json:"enqueued"`
	// Completed counts jobs that reached Done.
	Completed uint64 `json:"completed"`
	// Failed counts jobs that reached Failed.
	Failed uint64 `json:"failed"`
	// Cancelled counts jobs that reached Cancelled.
	Cancelled uint64 `json:"cancelled"`
	// Queued and Running are the current in-flight populations.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// InflightShots sums the shot budgets of currently Running jobs —
	// the per-worker load gauge the cluster coordinator aggregates.
	InflightShots int64 `json:"inflight_shots"`
	// CacheHits, CacheMisses, and CacheEvictions are the result-cache
	// counters; CacheLen/CacheCap its current and maximum size.
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`
	CacheLen       int    `json:"cache_len"`
	CacheCap       int    `json:"cache_cap"`
	// PlanCacheHits, PlanCacheMisses, and PlanCacheLen mirror the
	// process-wide compiled-execution-plan cache (core.PlanCacheStats):
	// repeated circuit content skips recompilation even when differing
	// options force a fresh simulation.
	PlanCacheHits   uint64 `json:"plan_cache_hits"`
	PlanCacheMisses uint64 `json:"plan_cache_misses"`
	PlanCacheLen    int    `json:"plan_cache_len"`
	// PlanCacheFusedPlans and PlanCacheFusedOps report gate-fusion
	// work (core.PlanCacheFusion): how many compiled plans fused at
	// least one same-target gate run, and how many logical ops those
	// runs absorbed into chained kernels.
	PlanCacheFusedPlans uint64 `json:"plan_cache_fused_plans"`
	PlanCacheFusedOps   uint64 `json:"plan_cache_fused_ops"`
	// Shards, QueueDepth, and BatchSize echo the resolved Config.
	Shards     int `json:"shards"`
	QueueDepth int `json:"queue_depth"`
	BatchSize  int `json:"batch_size"`
	// ShardDepths is the live queued-job count of each shard, in shard
	// order — the gauge that exposes hot shards (also served as the
	// queue_depth{shard="N"} series on /metrics).
	ShardDepths []int `json:"shard_depths"`
	// Tenants is the per-tenant usage: every registered tenant in file
	// order, then the anonymous account (in-process and unauthenticated
	// submissions).
	Tenants []tenant.Usage `json:"tenants,omitempty"`
	// Journal carries the write-ahead-log gauges (size, replay lag,
	// compaction cadence); nil when the service runs without a journal.
	Journal *JournalStats `json:"journal,omitempty"`
}

// job is the internal record of one submission.
type job struct {
	id     JobID
	circ   *circuit.Circuit
	opts   []core.RunOption
	key    cacheKey
	shots  int
	ctx    context.Context
	cancel context.CancelFunc
	// acct is the owning tenant's account (never nil — anonymous when
	// untenanted); reserved reports whether the job holds a quota
	// reservation (fast-path settlements never reserve).
	acct     *tenant.Account
	reserved bool

	mu     sync.Mutex
	state  JobState
	res    core.Result
	err    error
	cached bool
	done   chan struct{}
	// events records every state transition for replay, in eventBuf:
	// queued, running and terminal are the most a job records, so
	// publishing never reallocates. subs are the live subscriber
	// channels (see Subscribe in events.go).
	events   []Event
	eventBuf [3]Event
	subs     []chan Event
}

// newJob returns the record of a job about to be admitted: state
// Queued, with its queued event already recorded — no subscriber can
// exist before the ID is issued, so no fan-out is needed. Callers set
// its context, and its ID when they publish it.
func newJob(c *circuit.Circuit, opts []core.RunOption, acct *tenant.Account) *job {
	j := &job{
		circ: c, opts: opts,
		key:   cacheKey{fingerprint: core.Fingerprint(c), options: core.OptionsDigest(opts...)},
		shots: core.ShotsOf(opts...),
		acct:  acct,
		state: Queued, done: make(chan struct{}),
	}
	j.events = append(j.eventBuf[:0], Event{Seq: 0, State: Queued.String()})
	return j
}

// begin transitions a job Queued → Running, updating the population
// gauges; ok is false if the job already settled (e.g. cancelled while
// waiting in the queue). It returns the circuit and options snapshotted
// under the job mutex: finish nils those fields on settlement, so
// workers must use the snapshot, never read j.circ/j.opts unlocked.
// Gauge updates also happen under the mutex so they serialize with
// finish and never go transiently negative.
func (s *Service) begin(j *job) (circ *circuit.Circuit, opts []core.RunOption, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Queued {
		return nil, nil, false
	}
	j.state = Running
	s.queuedGauge.Add(-1)
	s.runningGauge.Add(1)
	s.inflightShots.Add(int64(j.shots))
	if j.reserved {
		j.acct.JobStarted()
	}
	j.publishLocked(Event{State: Running.String()})
	return j.circ, j.opts, true
}

// settled reports whether the job reached a terminal state.
func (s JobState) settled() bool {
	return s == Done || s == Failed || s == Cancelled
}

// Service is the asynchronous job service over one core.Processor.
// Create it with New, submit with Enqueue, and stop it with Close. All
// methods are safe for concurrent use.
type Service struct {
	proc  *core.Processor
	cfg   Config
	cache *resultCache

	mu      sync.Mutex
	jobs    map[JobID]*job
	settled []JobID // settle order, for bounded retention
	nextID  uint64
	closed  bool
	// journaled maps each unsettled journaled job to its verbatim wire
	// payload and tenant — the working set the next compaction
	// snapshot folds in.
	journaled map[JobID]journaledJob

	shards []*shardQueue
	wg     sync.WaitGroup

	// anon is the fallback account for Enqueue callers that present no
	// tenant — one per Service, so accounting never bleeds across
	// independent instances (important under go test).
	anon *tenant.Account

	enqueued  atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	cancelled atomic.Uint64
	// queuedGauge/runningGauge track the in-flight populations so
	// Stats stays O(1) instead of scanning the retained job table;
	// inflightShots sums the shot budgets of Running jobs, the load
	// signal the cluster coordinator reads per worker.
	queuedGauge   atomic.Int64
	runningGauge  atomic.Int64
	inflightShots atomic.Int64
	// journalLag mirrors len(journaled) atomically so Stats never takes
	// s.mu; journalReplayed is the count restored by Replay at startup.
	journalLag      atomic.Int64
	journalReplayed atomic.Int64
}

// New starts a Service over proc: one worker goroutine per shard,
// ready to accept Enqueue calls immediately.
func New(proc *core.Processor, cfg Config) (*Service, error) {
	if proc == nil {
		return nil, errors.New("serve: nil processor")
	}
	cfg = cfg.withDefaults()
	s := &Service{
		proc:      proc,
		cfg:       cfg,
		cache:     newResultCache(cfg.CacheSize),
		jobs:      make(map[JobID]*job),
		journaled: make(map[JobID]journaledJob),
		anon:      tenant.NewAnonymous(),
	}
	s.shards = make([]*shardQueue, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = newShardQueue(i, cfg.QueueDepth)
		s.wg.Add(1)
		go s.worker(s.shards[i])
	}
	return s, nil
}

// Processor returns the processor the service executes on, for callers
// that need to resolve request options (JobRequest.Options) against the
// same device the service runs — e.g. the experiment sweep layer.
func (s *Service) Processor() *core.Processor { return s.proc }

// Close stops the service gracefully: no new submissions are accepted,
// already-queued jobs drain to completion, and Close returns once
// every worker has exited. Safe to call more than once.
func (s *Service) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, sh := range s.shards {
			sh.close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Enqueue submits a circuit with its run options and returns the job
// ID to Await on. A submission whose content address is already cached
// settles to Done immediately without entering the queue; otherwise it
// joins its shard's bounded queue, and Enqueue returns ErrQueueFull
// (issuing no job) when that queue is at capacity. A caller-supplied
// core.WithContext is honored: the job's internal context derives from
// it, so cancelling it aborts the job exactly like CancelJob.
func (s *Service) Enqueue(c *circuit.Circuit, opts ...core.RunOption) (JobID, error) {
	return s.enqueue(nil, nil, c, opts)
}

// EnqueueAs is Enqueue on behalf of a tenant account: admission
// reserves against the tenant's quotas (failing with
// tenant.ErrQuotaExceeded, wrapped with the violated limit) and the
// job competes in its tenant's weighted share of the shard. A nil
// acct selects the service's anonymous account.
func (s *Service) EnqueueAs(acct *tenant.Account, c *circuit.Circuit, opts ...core.RunOption) (JobID, error) {
	return s.enqueue(acct, nil, c, opts)
}

// enqueue implements Enqueue, EnqueueAs, and EnqueueJournaled; a
// non-nil payload with a configured journal selects the durable
// admission path.
func (s *Service) enqueue(acct *tenant.Account, payload []byte, c *circuit.Circuit, opts []core.RunOption) (JobID, error) {
	if c == nil {
		return "", errors.New("serve: nil circuit")
	}
	if acct == nil {
		acct = s.anon
	}
	j := newJob(c, opts, acct)
	base := context.Background()
	if userCtx := core.ContextOf(opts...); userCtx != nil {
		base = userCtx
	}
	// The fast paths below settle the job before its ID is returned,
	// so nothing runs under its context: it keeps the caller's, with
	// nothing to cancel. Only a queued job gets a cancellable one.
	j.ctx, j.cancel = base, func() {}

	// A caller context that is already cancelled settles Cancelled even
	// on the cache fast path, so the outcome of a cancelled submission
	// never depends on cache state.
	if err := base.Err(); err != nil {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return "", ErrClosed
		}
		id := s.issueIDLocked(j)
		s.mu.Unlock()
		s.queuedGauge.Add(1)
		s.enqueued.Add(1)
		acct.NoteBypass()
		s.finish(j, core.Result{}, err, false)
		return id, nil
	}

	if res, ok := s.cache.get(j.key); ok {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return "", ErrClosed
		}
		id := s.issueIDLocked(j)
		s.mu.Unlock()
		s.queuedGauge.Add(1)
		s.enqueued.Add(1)
		acct.NoteBypass()
		s.finish(j, res, nil, true)
		return id, nil
	}

	// A rejected submission is never published to the job table, so
	// the reject paths below cannot race a concurrent CancelJob and
	// the gauges move exactly once per accepted job. All pushes happen
	// under s.mu (workers only pop), so the capacity check here makes
	// the later forcePush safe: depth can only shrink in between.
	ctx, cancel := context.WithCancel(base)
	j.ctx, j.cancel = ctx, cancel
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return "", ErrClosed
	}
	sh := s.shards[j.key.fingerprint%uint64(len(s.shards))]
	if sh.full() {
		s.mu.Unlock()
		cancel()
		return "", queueFullError(sh)
	}
	if err := acct.TryAdmitJob(j.shots); err != nil {
		s.mu.Unlock()
		cancel()
		return "", err
	}
	j.reserved = true
	if payload != nil && s.cfg.Journal != nil {
		return s.admitJournaledLocked(sh, j, payload)
	}
	id := s.issueIDLocked(j)
	s.queuedGauge.Add(1)
	sh.forcePush(j)
	s.mu.Unlock()
	// Counted only here and on the fast paths, so Enqueued reflects
	// accepted submissions, never rejected ones.
	s.enqueued.Add(1)
	return id, nil
}

// queueFullError wraps ErrQueueFull with the rejecting shard and its
// depth, so operators can spot a hot shard straight from the error.
func queueFullError(sh *shardQueue) error {
	return fmt.Errorf("%w: shard %d at depth %d/%d", ErrQueueFull, sh.index, sh.len(), sh.cap)
}

// issueIDLocked assigns the next job ID and publishes the record;
// callers hold s.mu.
func (s *Service) issueIDLocked(j *job) JobID {
	s.nextID++
	id := formatJobID(s.nextID)
	j.id = id
	s.jobs[id] = j
	return id
}

// formatJobID renders n as "j-" and at least six digits, the
// fmt.Sprintf("j-%06d") form, with the string as its one allocation.
func formatJobID(n uint64) JobID {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], n, 10)
	var buf [len("j-") + 20]byte
	b := append(buf[:0], "j-"...)
	for i := len(d); i < 6; i++ {
		b = append(b, '0')
	}
	return JobID(append(b, d...))
}

// Await blocks until the job settles or ctx expires, returning the
// job's Result (read-only when cached) or its terminal error.
func (s *Service) Await(ctx context.Context, id JobID) (core.Result, error) {
	j, err := s.job(id)
	if err != nil {
		return core.Result{}, err
	}
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.res, j.err
	case <-ctx.Done():
		return core.Result{}, ctx.Err()
	}
}

// Status returns a snapshot of the job's lifecycle state.
func (s *Service) Status(id JobID) (JobStatus, error) {
	j, err := s.job(id)
	if err != nil {
		return JobStatus{}, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{ID: j.id, State: j.state, Cached: j.cached, Err: j.err}, nil
}

// CancelJob aborts a job: a queued job settles to Cancelled
// immediately, a running one promptly (its context is cancelled and
// the trajectory backend polls it between shots). ErrFinished reports
// a job that already settled.
func (s *Service) CancelJob(id JobID) error {
	j, err := s.job(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.state.settled() {
		j.mu.Unlock()
		return ErrFinished
	}
	queued := j.state == Queued
	j.mu.Unlock()

	j.cancel()
	if queued {
		// Settle immediately. If a worker won the race and began the
		// job, this still settles it as Cancelled (finish is
		// first-writer-wins, not a no-op) and the cancelled context
		// ends the in-flight run promptly; the worker's own finish
		// then finds the job settled and does nothing.
		s.finish(j, core.Result{}, context.Canceled, false)
	}
	return nil
}

// Stats returns current service counters. It reads atomic gauges and
// the cache counters — O(1), never blocking the intake path — plus,
// when a journal is configured, the journal's own gauge mutex (held
// only for field copies, never across an fsync).
func (s *Service) Stats() Stats {
	hits, misses, evictions := s.cache.counters()
	planHits, planMisses, planLen := core.PlanCacheStats()
	fusedPlans, fusedOps := core.PlanCacheFusion()
	queued := int(s.queuedGauge.Load())
	running := int(s.runningGauge.Load())
	var js *JournalStats
	if s.cfg.Journal != nil {
		js = &JournalStats{
			Stats:    s.cfg.Journal.Stats(),
			Lag:      int(s.journalLag.Load()),
			Replayed: s.journalReplayed.Load(),
		}
	}
	depths := make([]int, len(s.shards))
	for i, sh := range s.shards {
		depths[i] = sh.len()
	}
	return Stats{
		Enqueued:            s.enqueued.Load(),
		Completed:           s.completed.Load(),
		Failed:              s.failed.Load(),
		Cancelled:           s.cancelled.Load(),
		Queued:              queued,
		Running:             running,
		InflightShots:       s.inflightShots.Load(),
		CacheHits:           hits,
		CacheMisses:         misses,
		CacheEvictions:      evictions,
		CacheLen:            s.cache.len(),
		CacheCap:            s.cfg.CacheSize,
		PlanCacheHits:       planHits,
		PlanCacheMisses:     planMisses,
		PlanCacheLen:        planLen,
		PlanCacheFusedPlans: fusedPlans,
		PlanCacheFusedOps:   fusedOps,
		Shards:              s.cfg.Shards,
		QueueDepth:          s.cfg.QueueDepth,
		BatchSize:           s.cfg.BatchSize,
		ShardDepths:         depths,
		Tenants:             s.tenantUsage(),
		Journal:             js,
	}
}

// tenantUsage snapshots every account the service can execute for:
// registered tenants in file order, then the service's anonymous
// account.
func (s *Service) tenantUsage() []tenant.Usage {
	var out []tenant.Usage
	if s.cfg.Tenants != nil {
		for _, a := range s.cfg.Tenants.Accounts() {
			out = append(out, a.Snapshot())
		}
	}
	out = append(out, s.anon.Snapshot())
	return out
}

// Anonymous returns the service's fallback account — what plain
// Enqueue submissions run as. Callers that pre-resolve accounts (the
// sweep layer, tests) use it to label work explicitly.
func (s *Service) Anonymous() *tenant.Account { return s.anon }

// Tenants returns the configured registry, or nil when the service
// runs single-tenant.
func (s *Service) Tenants() *tenant.Registry { return s.cfg.Tenants }

// job looks up a job record by ID.
func (s *Service) job(id JobID) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// finish settles a job exactly once, releasing its context and
// bumping the terminal-state counter. Later calls are no-ops, which is
// what resolves cancel-vs-complete races.
func (s *Service) finish(j *job, res core.Result, err error, cached bool) {
	j.mu.Lock()
	if j.state.settled() {
		j.mu.Unlock()
		return
	}
	prev := j.state
	j.res, j.err, j.cached = res, err, cached
	// Nothing reads the circuit or options after settlement; dropping
	// them keeps retained job records from pinning gate unitaries.
	j.circ, j.opts = nil, nil
	switch {
	case err == nil:
		j.state = Done
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = Cancelled
	default:
		j.state = Failed
	}
	terminal := j.state
	switch prev {
	case Queued:
		s.queuedGauge.Add(-1)
	case Running:
		s.runningGauge.Add(-1)
		s.inflightShots.Add(-int64(j.shots))
	}
	j.publishLocked(j.terminalEventLocked())
	close(j.done)
	j.mu.Unlock()
	j.cancel()
	var oc tenant.Outcome
	switch terminal {
	case Done:
		s.completed.Add(1)
		oc = tenant.Completed
	case Cancelled:
		s.cancelled.Add(1)
		oc = tenant.Cancelled
	default:
		s.failed.Add(1)
		oc = tenant.Failed
	}
	if j.acct != nil {
		j.acct.JobSettled(prev == Running, j.reserved, j.shots, oc)
	}
	s.journalSettle(j.id, terminal)
	s.retain(j.id)
}

// retain records a settled job and prunes the oldest settled records
// past the RetainJobs bound, so the job table cannot grow without
// bound under sustained traffic. Callers already awaiting a pruned job
// keep their reference; only fresh ID lookups forget it.
func (s *Service) retain(id JobID) {
	if s.cfg.RetainJobs == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settled = append(s.settled, id)
	for len(s.settled) > s.cfg.RetainJobs {
		delete(s.jobs, s.settled[0])
		s.settled = s.settled[1:]
	}
}

// worker drains one shard: it blocks for the first job, greedily
// collects up to BatchSize-1 more without blocking (each dequeue
// scheduled by the shard's weighted round-robin), and runs the batch
// through Processor.Submit.
func (s *Service) worker(sh *shardQueue) {
	defer s.wg.Done()
	for {
		j, ok := sh.pop()
		if !ok {
			return
		}
		batch := []*job{j}
		for len(batch) < s.cfg.BatchSize {
			next, ok := sh.tryPop()
			if !ok {
				break
			}
			batch = append(batch, next)
		}
		s.runBatch(batch)
	}
}

// runBatch executes one drained batch: cancelled jobs are skipped,
// cache hits settle instantly, in-batch duplicates collapse onto one
// representative run, and the remainder goes through Processor.Submit
// in a single call (falling back to per-job submission on error, so
// one failing job cannot doom its batchmates).
func (s *Service) runBatch(batch []*job) {
	// runItem pairs a begun job with the circuit/options snapshot taken
	// under its mutex: finish nils those fields on settlement, so all
	// post-begin access goes through the snapshot.
	type runItem struct {
		j    *job
		circ *circuit.Circuit
		opts []core.RunOption
	}
	reps := make(map[cacheKey]runItem)
	dups := make(map[cacheKey][]runItem)
	var run []runItem
	for _, j := range batch {
		circ, opts, ok := s.begin(j)
		if !ok {
			continue // settled while queued (cancelled)
		}
		if err := j.ctx.Err(); err != nil {
			s.finish(j, core.Result{}, err, false)
			continue
		}
		if res, ok := s.cache.peek(j.key); ok {
			s.finish(j, res, nil, true)
			continue
		}
		it := runItem{j: j, circ: circ, opts: opts}
		if _, ok := reps[j.key]; ok {
			dups[j.key] = append(dups[j.key], it)
			continue
		}
		reps[j.key] = it
		run = append(run, it)
	}

	withCtx := func(it runItem) core.Job {
		// A trajectory pool as wide as the node (core's own default is
		// one worker) comes first, so an explicit workers in the job's
		// options still wins; the width changes no result byte.
		opts := make([]core.RunOption, 0, len(it.opts)+2)
		opts = append(opts, core.WithWorkers(runtime.GOMAXPROCS(0)))
		opts = append(opts, it.opts...)
		opts = append(opts, core.WithContext(it.j.ctx))
		return core.NewJob(it.circ, opts...)
	}

	if len(run) > 0 {
		coreJobs := make([]core.Job, len(run))
		for i, it := range run {
			coreJobs[i] = withCtx(it)
		}
		// Submit stops at the first failing job, returning the prefix
		// of completed Results plus the failing index (core.JobError).
		// Settle the prefix, fail that one job, and resume after it —
		// no batchmate is ever simulated twice.
		remaining := run
		jobsLeft := coreJobs
		for len(remaining) > 0 {
			results, err := s.proc.Submit(jobsLeft...)
			for i, res := range results {
				s.cache.put(remaining[i].j.key, res)
				s.finish(remaining[i].j, res, nil, false)
			}
			if err == nil {
				break
			}
			var je *core.JobError
			if !errors.As(err, &je) || je.Index >= len(remaining) {
				// No index attribution available: fail whatever the
				// prefix didn't cover.
				for _, it := range remaining[len(results):] {
					s.finish(it.j, core.Result{}, err, false)
				}
				break
			}
			s.finish(remaining[je.Index].j, core.Result{}, je.Err, false)
			remaining = remaining[je.Index+1:]
			jobsLeft = jobsLeft[je.Index+1:]
		}
	}

	for key, waiting := range dups {
		rep := reps[key].j
		rep.mu.Lock()
		repRes, repErr := rep.res, rep.err
		rep.mu.Unlock()
		for _, d := range waiting {
			// A duplicate's own context was never in the representative
			// run; honor a cancellation that arrived meanwhile instead
			// of settling the job Done after an acknowledged cancel.
			if err := d.j.ctx.Err(); err != nil {
				s.finish(d.j, core.Result{}, err, false)
				continue
			}
			if repErr != nil {
				// The representative failed or was cancelled; its
				// outcome is not this job's. Run the duplicate on its
				// own context instead of inheriting it.
				rs, jerr := s.proc.Submit(withCtx(d))
				if jerr != nil {
					s.finish(d.j, core.Result{}, jerr, false)
					continue
				}
				s.cache.put(d.j.key, rs[0])
				s.finish(d.j, rs[0], nil, false)
				continue
			}
			if res, ok := s.cache.peek(d.j.key); ok {
				s.finish(d.j, res, nil, true)
			} else {
				// Cache disabled: share the representative's result but
				// don't claim a cache hit that no cache served.
				s.finish(d.j, repRes, nil, false)
			}
		}
	}
}
