package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"quditkit/internal/core"
	"quditkit/internal/journal"
	"quditkit/internal/serve"
	"quditkit/internal/tenant"
)

// Coordinator errors distinguishable by callers.
var (
	// ErrNoWorkers is returned when a job cannot be dispatched because
	// no live, non-draining worker accepted it.
	ErrNoWorkers = errors.New("cluster: no worker available")
	// ErrUnknownJob is returned for coordinator job IDs never issued
	// (or pruned by retention).
	ErrUnknownJob = errors.New("cluster: unknown job id")
)

// CoordinatorConfig sizes a Coordinator. The zero value of each field
// selects the default noted on it; Proc is required.
type CoordinatorConfig struct {
	// Proc validates incoming jobs at the edge (admission limits,
	// derived noise) and anchors key derivation. It never executes
	// anything — the fleet's workers do — so it should be built with
	// the same device flags as the workers.
	Proc *core.Processor
	// HeartbeatTTL is how long a worker may go without a heartbeat
	// before it is declared dead and its jobs are requeued.
	// Default 5s.
	HeartbeatTTL time.Duration
	// MonitorInterval is how often the liveness monitor scans for dead
	// workers. Zero selects HeartbeatTTL/2; negative disables the
	// monitor goroutine (tests then drive CheckWorkers directly).
	MonitorInterval time.Duration
	// DrainTimeout bounds how long a deregistration waits for each
	// uncollected job on the draining worker. Default 30s.
	DrainTimeout time.Duration
	// MaxRequeues bounds how many times one job is re-dispatched after
	// worker losses before it settles Failed. Default 3.
	MaxRequeues int
	// VNodes is the consistent-hash virtual-node count per worker
	// (DefaultVNodes when zero).
	VNodes int
	// RetainJobs bounds the settled job records kept for lookup,
	// mirroring serve.Config.RetainJobs. Zero selects 4096; negative
	// retains everything.
	RetainJobs int
	// ControlTimeout bounds each control round-trip to a worker
	// (dispatch, status proxy, cancel, stats scrape) when Client is
	// nil. Default 30s. Raise it for slow fleets or chaos
	// delay-injection; event streams and ?wait=1 proxies always run on
	// a timeout-free copy bounded by the caller's context instead.
	ControlTimeout time.Duration
	// DispatchRetries bounds the additional dispatch rounds attempted
	// after every candidate in a round failed transiently (transport
	// error, 5xx, full queue). Rounds re-snapshot the ring, so a worker
	// that re-registers mid-backoff is picked up. Default 3; negative
	// disables retry.
	DispatchRetries int
	// DispatchBackoff is the first inter-round backoff; it doubles per
	// round, capped at 1s, with ±50% jitter so a thundering herd of
	// requeues does not re-converge on one worker. Default 50ms.
	DispatchBackoff time.Duration
	// Journal, when non-nil, makes the fleet durable: workers joining
	// and leaving, and the dispatches and settlements of client jobs,
	// append small records that Replay restores after a restart.
	Journal *journal.Journal
	// Client is the HTTP client used for worker traffic; nil selects a
	// client bounded by ControlTimeout. Event streams and ?wait=1
	// proxies use a timeout-free copy so long waits are bounded by the
	// caller's context, not the transport.
	Client *http.Client
	// Tenants, when non-nil, turns on multi-tenant enforcement at the
	// fleet edge: the HTTP handler requires a registered X-API-Key,
	// submissions reserve against per-tenant job and shot quotas, a
	// tenant can only see its own jobs, and dispatches forward the
	// tenant's key to workers. Nil runs single-tenant under one
	// anonymous unlimited account.
	Tenants *tenant.Registry

	// now is the clock, overridable by tests.
	now func() time.Time
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.HeartbeatTTL <= 0 {
		c.HeartbeatTTL = 5 * time.Second
	}
	if c.MonitorInterval == 0 {
		c.MonitorInterval = c.HeartbeatTTL / 2
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxRequeues <= 0 {
		c.MaxRequeues = 3
	}
	switch {
	case c.RetainJobs == 0:
		c.RetainJobs = 4096
	case c.RetainJobs < 0:
		c.RetainJobs = 0 // unlimited
	}
	if c.ControlTimeout <= 0 {
		c.ControlTimeout = 30 * time.Second
	}
	switch {
	case c.DispatchRetries == 0:
		c.DispatchRetries = 3
	case c.DispatchRetries < 0:
		c.DispatchRetries = 0
	}
	if c.DispatchBackoff <= 0 {
		c.DispatchBackoff = 50 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: c.ControlTimeout}
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// workerNode is the coordinator's record of one registered worker.
type workerNode struct {
	id       string
	url      string
	lastBeat time.Time
	draining bool
	// assigned holds the unsettled job records routed to this worker,
	// the set requeued if it dies.
	assigned map[string]*jobRecord
}

// jobRecord tracks one accepted submission across dispatch, spill,
// requeue, and settlement.
type jobRecord struct {
	id  string
	key uint64
	// acct is the owning tenant's account (never nil — anonymous when
	// untenanted); shots is the reservation released at settlement.
	acct  *tenant.Account
	shots int
	// durable marks a job a client holds an ID for (not a sweep cell
	// of RunJob): only those are journaled.
	durable bool

	mu sync.Mutex
	// reserved marks an admission reservation held by this record;
	// started marks the queued→running transition (first successful
	// dispatch). Both guard the single release at settlement.
	reserved bool
	started  bool
	// payload is the original request body, kept until settlement so
	// the job can be re-dispatched verbatim after a worker loss.
	payload  []byte
	workerID string
	remoteID string // the worker-issued job ID
	requeues int
	// requeueing serializes concurrent observers of one worker
	// failure: while a requeue is in flight every other caller skips,
	// so one loss burns one requeue, not one per long-poller.
	requeueing bool
	settled    *JobView
}

// snapshot returns the record's routing state under its mutex.
func (rec *jobRecord) snapshot() (workerID, remoteID string, requeues int, settled *JobView) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.workerID, rec.remoteID, rec.requeues, rec.settled
}

// Coordinator routes jobs across a fleet of quditd workers: consistent
// hashing by JobKey, spill-on-backpressure, heartbeat liveness with
// automatic requeue, and drain-on-deregister. Create it with
// NewCoordinator, expose it with Handler, and stop it with Close.
type Coordinator struct {
	cfg      CoordinatorConfig
	client   *http.Client // bounded-timeout client for control traffic
	streamer *http.Client // timeout-free client for waits and SSE relays
	// anon is the unlimited account submissions run under when no
	// registry is configured (or an in-process caller passes nil).
	anon *tenant.Account

	mu           sync.Mutex
	workers      map[string]*workerNode
	ring         *Ring
	jobs         map[string]*jobRecord
	settledOrder []string
	nextID       uint64
	closed       bool
	// journalLag counts journaled jobs not yet settled;
	// journalReplayed is the count Replay restored at startup.
	journalLag      int
	journalReplayed int

	stopMonitor chan struct{}
	monitorDone chan struct{}

	dispatched atomic.Uint64
	spills     atomic.Uint64
	requeued   atomic.Uint64
	settled    atomic.Uint64
}

// NewCoordinator builds a coordinator and, unless the monitor is
// disabled, starts its liveness loop.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Proc == nil {
		return nil, errors.New("cluster: coordinator needs a processor for admission")
	}
	cfg = cfg.withDefaults()
	streamer := *cfg.Client
	streamer.Timeout = 0
	c := &Coordinator{
		cfg:      cfg,
		client:   cfg.Client,
		streamer: &streamer,
		anon:     tenant.NewAnonymous(),
		workers:  make(map[string]*workerNode),
		ring:     NewRing(cfg.VNodes),
		jobs:     make(map[string]*jobRecord),
	}
	if cfg.MonitorInterval > 0 {
		c.stopMonitor = make(chan struct{})
		c.monitorDone = make(chan struct{})
		go c.monitor()
	}
	return c, nil
}

// Close stops the liveness monitor. It does not contact workers: a
// coordinator restart is survivable because workers re-register on
// their next failed heartbeat.
func (c *Coordinator) Close() {
	c.mu.Lock()
	closed := c.closed
	c.closed = true
	c.mu.Unlock()
	if closed {
		return
	}
	if c.stopMonitor != nil {
		close(c.stopMonitor)
		<-c.monitorDone
	}
}

// monitor periodically reaps workers that missed their heartbeat TTL.
func (c *Coordinator) monitor() {
	defer close(c.monitorDone)
	t := time.NewTicker(c.cfg.MonitorInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.CheckWorkers(c.cfg.now())
		case <-c.stopMonitor:
			return
		}
	}
}

// Register adds or refreshes a worker. Re-registering an existing ID
// updates its URL and revives it (a worker that restarted faster than
// the TTL keeps its ring position, so its cache keys keep routing to
// it).
func (c *Coordinator) Register(id, url string) {
	c.mu.Lock()
	n := c.workers[id]
	if n == nil {
		n = &workerNode{id: id, assigned: make(map[string]*jobRecord)}
		c.workers[id] = n
	}
	n.url = url
	n.draining = false
	n.lastBeat = c.cfg.now()
	c.ring.Add(id)
	_ = c.journalLocked(recWorkerJoin, entry{ID: id, URL: url})
	c.mu.Unlock()
}

// Heartbeat refreshes a worker's liveness clock; false reports an
// unknown ID, the signal for the worker to re-register.
func (c *Coordinator) Heartbeat(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.workers[id]
	if n == nil {
		return false
	}
	n.lastBeat = c.cfg.now()
	return true
}

// CheckWorkers reaps every worker whose last heartbeat is older than
// the TTL at time now, requeueing its unsettled jobs onto survivors.
// It returns the reaped worker IDs. The monitor goroutine calls this
// on its interval; tests call it directly with a synthetic clock.
func (c *Coordinator) CheckWorkers(now time.Time) []string {
	type orphan struct {
		rec    *jobRecord
		worker string
	}
	c.mu.Lock()
	var dead []string
	var orphaned []orphan
	for id, n := range c.workers {
		if n.draining || now.Sub(n.lastBeat) <= c.cfg.HeartbeatTTL {
			continue
		}
		dead = append(dead, id)
		for _, rec := range n.assigned {
			orphaned = append(orphaned, orphan{rec: rec, worker: id})
		}
		c.ring.Remove(id)
		delete(c.workers, id)
		_ = c.journalLocked(recWorkerLeave, entry{ID: id})
	}
	c.mu.Unlock()
	for _, o := range orphaned {
		c.requeue(o.rec, o.worker)
	}
	return dead
}

// requeue re-dispatches one orphaned job after its worker (failed)
// was observed failing. It never double-executes a finished job: a
// record that already settled is skipped outright, and a
// re-dispatched payload goes through the target worker's Enqueue,
// whose content-addressed result-cache check settles it instantly if
// that worker has ever produced this result — the idempotency that
// makes requeue safe under at-least-once dispatch. Concurrent
// observers of one failure collapse to one requeue: callers whose
// observed worker no longer owns the record (someone already moved
// it), or who find a requeue already in flight, return without
// touching the budget.
func (c *Coordinator) requeue(rec *jobRecord, failed string) {
	rec.mu.Lock()
	if rec.settled != nil || rec.requeueing || (failed != "" && rec.workerID != failed) {
		rec.mu.Unlock()
		return
	}
	rec.requeueing = true
	rec.requeues++
	n := rec.requeues
	rec.mu.Unlock()
	defer func() {
		rec.mu.Lock()
		rec.requeueing = false
		rec.mu.Unlock()
	}()
	if n > c.cfg.MaxRequeues {
		c.settle(rec, &JobView{JobView: serve.JobView{
			ID:    rec.id,
			State: serve.Failed.String(),
			Error: fmt.Sprintf("cluster: job lost %d workers; giving up", n),
		}, Requeues: n})
		return
	}
	c.requeued.Add(1)
	if _, err := c.dispatch(rec, failed); err != nil {
		c.settle(rec, &JobView{JobView: serve.JobView{
			ID:    rec.id,
			State: serve.Failed.String(),
			Error: fmt.Sprintf("cluster: requeue failed: %v", err),
		}, Requeues: n})
	}
}

// settle records a job's terminal view exactly once, releases its
// payload and the tenant's admission reservation, removes it from its
// worker's assigned set, and journals it (a lost settle record costs
// one deterministic re-dispatch after a restart, so it is only
// counted).
func (c *Coordinator) settle(rec *jobRecord, view *JobView) {
	rec.mu.Lock()
	if rec.settled != nil {
		rec.mu.Unlock()
		return
	}
	rec.settled = view
	rec.payload = nil
	worker := rec.workerID
	started, reserved := rec.started, rec.reserved
	rec.reserved = false
	rec.mu.Unlock()
	if rec.acct != nil {
		oc := tenant.Failed
		switch view.State {
		case serve.Done.String():
			oc = tenant.Completed
		case serve.Cancelled.String():
			oc = tenant.Cancelled
		}
		rec.acct.JobSettled(started, reserved, rec.shots, oc)
	}
	c.settled.Add(1)
	c.mu.Lock()
	if rec.durable && worker != "" {
		_ = c.journalLocked(recSettle, entry{ID: rec.id})
		c.journalLag--
	}
	if n := c.workers[worker]; n != nil {
		delete(n.assigned, rec.id)
	}
	if c.cfg.RetainJobs > 0 {
		c.settledOrder = append(c.settledOrder, rec.id)
		for len(c.settledOrder) > c.cfg.RetainJobs {
			delete(c.jobs, c.settledOrder[0])
			c.settledOrder = c.settledOrder[1:]
		}
	}
	c.mu.Unlock()
	// A failed compaction leaves the WAL intact; the journal counts it.
	if jl := c.cfg.Journal; jl != nil && jl.CompactDue(compactEvery) {
		_ = c.compact()
	}
}

// assign points a record at a worker, maintaining the assigned sets
// and journaling a durable job's routing. It refuses (record
// untouched) when the worker has vanished or started draining since
// the caller picked it: its drain snapshot has already been taken, so
// a record assigned now would never be collected or requeued — the
// caller must treat the dispatch as failed and try the next candidate.
// It also refuses, with serve.ErrNotDurable, a job whose first
// dispatch record (the one that makes it durable) cannot be appended;
// a later one that fails costs a requeue after a restart.
func (c *Coordinator) assign(rec *jobRecord, workerID, remoteID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.workers[workerID]
	if n == nil || n.draining {
		return fmt.Errorf("cluster: worker %s left the fleet mid-dispatch", workerID)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	old := rec.workerID
	if rec.durable && rec.settled == nil {
		e := entry{ID: rec.id, Requeues: rec.requeues}
		if old == "" {
			e = rec.entryLocked()
		}
		e.Worker, e.Remote = workerID, remoteID
		err := c.journalLocked(recDispatch, e)
		if old == "" {
			if err != nil {
				return fmt.Errorf("%w: journaling dispatch: %w", serve.ErrNotDurable, err)
			}
			c.journalLag++
		}
	}
	rec.workerID, rec.remoteID = workerID, remoteID
	// First successful dispatch is the queued→running transition for
	// the tenant's gauges; requeues re-assign without re-starting.
	if rec.reserved && !rec.started {
		rec.started = true
		rec.acct.JobStarted()
	}
	if old != "" && old != workerID {
		if prev := c.workers[old]; prev != nil {
			delete(prev.assigned, rec.id)
		}
	}
	n.assigned[rec.id] = rec
	return nil
}

// workerURL resolves a worker's base URL ("" when unknown).
func (c *Coordinator) workerURL(id string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.workers[id]; n != nil {
		return n.url
	}
	return ""
}

// permanentError marks dispatch failures retrying cannot fix (a 4xx
// rejection: the fleet validated once at the edge, so a per-worker
// rejection would reject everywhere).
type permanentError struct{ err error }

func (e permanentError) Error() string { return e.err.Error() }
func (e permanentError) Unwrap() error { return e.err }

// maxDispatchBackoff caps the doubling inter-round dispatch backoff.
const maxDispatchBackoff = time.Second

// sleepJitter sleeps for a uniformly jittered duration in [d/2, 3d/2),
// decorrelating concurrent requeue storms.
func sleepJitter(d time.Duration) {
	time.Sleep(d/2 + time.Duration(rand.Int64N(int64(d))))
}

// dispatch routes a record's payload across the fleet, retrying rounds
// of transient failure (transport errors, 5xx, full queues, an empty
// ring) with capped exponential backoff + jitter up to DispatchRetries
// extra rounds. Each round re-snapshots the ring, so workers that
// (re-)register mid-backoff become candidates. A permanent rejection
// fails immediately.
func (c *Coordinator) dispatch(rec *jobRecord, exclude string) (serve.JobView, error) {
	backoff := c.cfg.DispatchBackoff
	excl := exclude
	for round := 0; ; round++ {
		view, err := c.dispatchOnce(rec, excl)
		// Exclude the just-failed worker only on the first round: by the
		// next one it has either been reaped (no longer a candidate) or
		// re-registered (eligible again) — and a single-worker fleet must
		// be able to re-dispatch to its only worker after it self-heals.
		excl = ""
		if err == nil {
			return view, nil
		}
		var perm permanentError
		if errors.As(err, &perm) {
			return serve.JobView{}, perm.err
		}
		if round >= c.cfg.DispatchRetries {
			return serve.JobView{}, err
		}
		sleepJitter(backoff)
		if backoff *= 2; backoff > maxDispatchBackoff {
			backoff = maxDispatchBackoff
		}
	}
}

// dispatchOnce runs one dispatch round: route to the owner of the
// record's key, spilling along ring successors on queue-full
// backpressure. exclude names one worker to skip (the one just
// observed failing). A worker's 4xx rejection (other than 429) returns
// a permanentError.
func (c *Coordinator) dispatchOnce(rec *jobRecord, exclude string) (serve.JobView, error) {
	type candidate struct{ id, url string }
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return serve.JobView{}, permanentError{ErrNoWorkers}
	}
	ordered := c.ring.Successors(rec.key, c.ring.Len())
	var cands []candidate
	for _, id := range ordered {
		n := c.workers[id]
		if n == nil || n.draining || id == exclude {
			continue
		}
		cands = append(cands, candidate{id, n.url})
	}
	c.mu.Unlock()
	rec.mu.Lock()
	payload := rec.payload
	rec.mu.Unlock()
	if len(cands) == 0 {
		return serve.JobView{}, ErrNoWorkers
	}

	var lastErr error = ErrNoWorkers
	for i, w := range cands {
		req, err := http.NewRequest(http.MethodPost, w.url+"/v1/jobs", bytes.NewReader(payload))
		if err != nil {
			lastErr = err
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		// Forward the tenant's identity so a worker fleet running its
		// own registry attributes (and meters) the job correctly.
		if rec.acct != nil && rec.acct.Key() != "" {
			req.Header.Set("X-API-Key", rec.acct.Key())
		}
		resp, err := c.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted:
			var view serve.JobView
			if err := json.Unmarshal(body, &view); err != nil {
				lastErr = fmt.Errorf("cluster: decoding worker response: %w", err)
				continue
			}
			if err := c.assign(rec, w.id, view.ID); err != nil {
				// The worker vanished or began draining between the
				// candidate snapshot and the assignment, or the job
				// could not be made durable; the worker accepted it
				// but nothing would ever collect it. The stray
				// execution is harmless (deterministic, cache-keyed).
				if errors.Is(err, serve.ErrNotDurable) {
					return serve.JobView{}, permanentError{err}
				}
				lastErr = err
				continue
			}
			if i > 0 {
				c.spills.Add(1)
			}
			if serve.Terminal(view.State) {
				c.settle(rec, c.wrap(rec, view))
			}
			return view, nil
		case resp.StatusCode == http.StatusTooManyRequests:
			// The owner's queue is full: backpressure, not failure.
			// Spill to the next replica on the ring. The sentinel lets
			// the handler map an all-workers-full round to its own 429.
			lastErr = fmt.Errorf("%w: worker %s", serve.ErrQueueFull, w.id)
			continue
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			return serve.JobView{}, permanentError{fmt.Errorf("cluster: worker %s rejected job: %s", w.id, string(bytes.TrimSpace(body)))}
		default:
			lastErr = fmt.Errorf("cluster: worker %s returned %d", w.id, resp.StatusCode)
			continue
		}
	}
	return serve.JobView{}, lastErr
}

// admit validates a request against the coordinator's processor,
// reserves the tenant's job and shot quota, and registers the job
// record — the single admission point shared by RunJob and the HTTP
// edge, which alone admits durable jobs. On success the returned
// record holds the reservation until settlement (or releaseFailed
// after a dispatch that never started).
func (c *Coordinator) admit(acct *tenant.Account, payload []byte, req serve.JobRequest, durable bool) (*jobRecord, error) {
	if acct == nil {
		acct = c.anon
	}
	circ, err := serve.BuildCircuit(req.Circuit)
	if err != nil {
		return nil, err
	}
	opts, err := req.Options(c.cfg.Proc)
	if err != nil {
		return nil, err
	}
	key := JobKey(core.Fingerprint(circ), core.OptionsDigest(opts...), core.TranspileKey(opts...))
	shots := core.ShotsOf(opts...)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrNoWorkers
	}
	if err := acct.TryAdmitJob(shots); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	rec := &jobRecord{
		id:       fmt.Sprintf("c-%06d", c.nextID),
		key:      key,
		acct:     acct,
		shots:    shots,
		durable:  durable,
		payload:  payload,
		reserved: true,
	}
	c.jobs[rec.id] = rec
	c.mu.Unlock()
	return rec, nil
}

// releaseFailed forgets a record whose dispatch failed outright: the
// caller got an error, nothing ran, so the admission is unwound as if
// it never happened.
func (c *Coordinator) releaseFailed(rec *jobRecord) {
	c.mu.Lock()
	delete(c.jobs, rec.id)
	c.mu.Unlock()
	rec.mu.Lock()
	reserved := rec.reserved
	rec.reserved = false
	rec.mu.Unlock()
	if reserved {
		rec.acct.CancelAdmission(rec.shots)
	}
}

// RunJob dispatches one job across the fleet on behalf of acct (nil
// means the coordinator's anonymous account) and blocks until it
// settles or ctx ends — the in-process submission path the experiment
// sweep layer drives, validated with the same admission limits and
// tenant quotas as the HTTP edge. The wait survives worker loss via
// the requeue machinery. When ctx ends first, the remote job is
// cancelled best-effort before the context error returns, so reaping
// a sweep also reaps its worker-side sub-jobs.
func (c *Coordinator) RunJob(ctx context.Context, acct *tenant.Account, req serve.JobRequest) (serve.JobView, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return serve.JobView{}, fmt.Errorf("cluster: encoding job: %w", err)
	}
	rec, err := c.admit(acct, payload, req, false)
	if err != nil {
		return serve.JobView{}, err
	}

	view, err := c.dispatch(rec, "")
	if err != nil {
		c.releaseFailed(rec)
		return serve.JobView{}, err
	}
	c.dispatched.Add(1)
	if serve.Terminal(view.State) {
		return c.wrap(rec, view).JobView, nil
	}
	settled, err := c.await(ctx, rec)
	if err != nil {
		if ctx.Err() != nil {
			c.cancelRemote(rec)
			return serve.JobView{}, ctx.Err()
		}
		return serve.JobView{}, err
	}
	return settled.JobView, nil
}

// cancelRemote best-effort cancels a record's current remote job so an
// abandoned wait does not leave a worker simulating for nobody, then
// briefly polls for the terminal view so the record settles instead of
// lingering in the assigned set. Failures are ignored: the worker's
// own lifecycle (or a later drain) settles the job eventually.
func (c *Coordinator) cancelRemote(rec *jobRecord) {
	workerID, remoteID, _, settled := rec.snapshot()
	if settled != nil {
		return
	}
	url := c.workerURL(workerID)
	if url == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, url+"/v1/jobs/"+remoteID, nil)
	if err != nil {
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	var view serve.JobView
	if err := c.getJSONWith(ctx, c.streamer, url+"/v1/jobs/"+remoteID+"?wait=1", &view); err != nil {
		return
	}
	if serve.Terminal(view.State) {
		c.settle(rec, c.wrap(rec, view))
	}
}

// wrap projects a worker view into the coordinator's wire view,
// rewriting the job ID to the coordinator-issued one.
func (c *Coordinator) wrap(rec *jobRecord, view serve.JobView) *JobView {
	workerID, _, requeues, _ := rec.snapshot()
	out := JobView{JobView: view, Worker: workerID, Requeues: requeues}
	out.ID = rec.id
	return &out
}

// Stats aggregates fleet state: registry liveness plus each worker's
// own /v1/stats gauges, scraped live (2s timeout per worker).
func (c *Coordinator) Stats() Stats {
	now := c.cfg.now()
	c.mu.Lock()
	js := c.cfg.Journal.Status(c.journalLag, int64(c.journalReplayed))
	rows := make([]WorkerStats, 0, len(c.workers))
	urls := make([]string, 0, len(c.workers))
	for _, n := range c.workers {
		rows = append(rows, WorkerStats{
			ID:              n.id,
			URL:             n.url,
			Alive:           now.Sub(n.lastBeat) <= c.cfg.HeartbeatTTL,
			Draining:        n.draining,
			LastHeartbeatMS: now.Sub(n.lastBeat).Milliseconds(),
			Assigned:        len(n.assigned),
		})
		urls = append(urls, n.url)
	}
	c.mu.Unlock()

	var wg sync.WaitGroup
	for i := range rows {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			var ws serve.Stats
			if err := c.getJSON(ctx, urls[i]+"/v1/stats", &ws); err != nil {
				rows[i].StatsError = err.Error()
				return
			}
			rows[i].QueueDepth = ws.Queued
			rows[i].Running = ws.Running
			rows[i].InflightShots = ws.InflightShots
			rows[i].CacheHits = ws.CacheHits
			rows[i].CacheMisses = ws.CacheMisses
			if total := ws.CacheHits + ws.CacheMisses; total > 0 {
				rows[i].CacheHitRate = float64(ws.CacheHits) / float64(total)
			}
		}(i)
	}
	wg.Wait()

	return Stats{
		Role:           "coordinator",
		Workers:        rows,
		Dispatched:     c.dispatched.Load(),
		Spills:         c.spills.Load(),
		Requeued:       c.requeued.Load(),
		Settled:        c.settled.Load(),
		HeartbeatTTLMS: c.cfg.HeartbeatTTL.Milliseconds(),
		Tenants:        c.tenantUsage(),
		Journal:        js,
	}
}

// tenantUsage snapshots every account the coordinator can admit for:
// registered tenants in file order, then the anonymous account.
func (c *Coordinator) tenantUsage() []tenant.Usage {
	var out []tenant.Usage
	if c.cfg.Tenants != nil {
		for _, a := range c.cfg.Tenants.Accounts() {
			out = append(out, a.Snapshot())
		}
	}
	out = append(out, c.anon.Snapshot())
	return out
}

// getJSON fetches one JSON document.
func (c *Coordinator) getJSON(ctx context.Context, url string, v interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: GET %s returned %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// record looks up a job record by coordinator ID.
func (c *Coordinator) record(id string) (*jobRecord, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return rec, nil
}
