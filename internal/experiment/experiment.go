// Package experiment is the parameterized-sweep subsystem of quditkit:
// the layer that turns the paper's application suite — randomized
// benchmarking decay curves, QAOA (gamma, beta) grids, lattice-gauge
// Trotter-step scans, reservoir-computing train/eval series — into
// first-class fleet workloads. One SweepRequest expands server-side
// into many content-addressed serve jobs; each cell is an ordinary job
// that dedupes through the result cache and (under a coordinator) fans
// across the worker ring.
//
// A Manager owns sweep lifecycles: Submit expands and launches a sweep,
// Parallel workers drain its cells through a Runner, per-cell
// settlements publish SweepEvents, and once every cell settles the
// kind's aggregator folds the histograms into one Aggregate (decay
// constants, ratio surfaces, quench spectra, NMSE scores) via
// internal/fit. A failed cell marks that cell and the sweep still
// completes; Cancel reaps every unsettled cell as cancelled. Because
// every cell seed derives deterministically from the sweep seed,
// aggregates are byte-identical across topologies.
//
// NewHandler exposes the Manager over JSON/HTTP next to the serve or
// cluster API (POST /v1/sweeps, GET /v1/sweeps/{id}, SSE events,
// DELETE); cmd/quditd mounts it in both roles.
package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"quditkit/internal/journal"
	"quditkit/internal/serve"
	"quditkit/internal/sse"
	"quditkit/internal/tenant"
)

// Manager errors distinguishable by callers.
var (
	// ErrBadSweep indicates an invalid SweepRequest (unknown kind,
	// out-of-range grid, missing spec).
	ErrBadSweep = errors.New("experiment: invalid sweep request")
	// ErrUnknownSweep is returned for sweep IDs the manager never
	// issued (or pruned by retention).
	ErrUnknownSweep = errors.New("experiment: unknown sweep id")
	// ErrSweepFinished is returned by Cancel for sweeps already
	// settled.
	ErrSweepFinished = errors.New("experiment: sweep already finished")
	// ErrManagerClosed is returned by Submit after Close has begun.
	ErrManagerClosed = errors.New("experiment: manager closed")
)

// Cell lifecycle states, the values of CellView.State.
const (
	cellPending   = "pending"
	cellRunning   = "running"
	cellDone      = "done"
	cellFailed    = "failed"
	cellCancelled = "cancelled"
)

// Config sizes a Manager. The zero value selects the defaults noted on
// each field.
type Config struct {
	// MaxCells bounds one sweep's expanded grid (DefaultMaxCells when
	// zero).
	MaxCells int
	// Parallel is the number of cells one sweep runs concurrently
	// (default 4). Against a ServeRunner it bounds queue pressure;
	// against a coordinator it bounds in-flight fleet dispatches.
	Parallel int
	// RetainSweeps bounds how many settled sweeps are kept for lookup
	// (default 64; negative retains everything).
	RetainSweeps int
	// Journal, when non-nil, makes sweeps durable: Submit fsyncs each
	// accepted request, every cell settlement appends its outcome, and
	// Replay resumes unsettled sweeps after a restart, re-running only
	// their unfinished cells. Nil disables durability.
	Journal *journal.Journal
	// Tenants, when non-nil, turns on multi-tenant enforcement at the
	// sweep surface: the HTTP layer requires a registered X-API-Key,
	// SubmitAs reserves against MaxConcurrentSweeps, and a tenant can
	// only see its own sweeps. Nil runs single-tenant under one
	// anonymous unlimited account.
	Tenants *tenant.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxCells <= 0 {
		c.MaxCells = DefaultMaxCells
	}
	if c.Parallel <= 0 {
		c.Parallel = 4
	}
	switch {
	case c.RetainSweeps == 0:
		c.RetainSweeps = 64
	case c.RetainSweeps < 0:
		c.RetainSweeps = 0 // unlimited
	}
	return c
}

// cellRecord tracks one cell from expansion to settlement.
type cellRecord struct {
	cell   cell
	state  string
	cached bool
	err    string
	// metric is the cell's scalar observable; hasMetric gates it so a
	// legitimate 0.0 is distinguishable from absent.
	metric    float64
	hasMetric bool
	// res retains the done cell's result view for finalize (histogram
	// aggregation); nil on every other outcome, and released by
	// finalize once the aggregate is folded.
	res *serve.ResultView
}

// view projects the record onto the wire form.
func (rec *cellRecord) view() CellView {
	cv := CellView{
		Index:  rec.cell.index,
		Params: rec.cell.params,
		State:  rec.state,
		Cached: rec.cached,
		Error:  rec.err,
	}
	if rec.hasMetric {
		m := rec.metric
		cv.Metric = &m
	}
	return cv
}

// sweep is the internal record of one submitted sweep.
type sweep struct {
	id     string
	kind   string
	agg    aggregator
	ctx    context.Context
	cancel context.CancelFunc
	// acct is the owning tenant's account (never nil — anonymous when
	// untenanted); it holds one concurrent-sweep reservation from
	// admission to finalize.
	acct *tenant.Account
	// reqJSON is the canonical durable form of the accepted request;
	// non-nil exactly when the sweep is journaled. Immutable.
	reqJSON []byte

	mu        sync.Mutex
	state     string
	cells     []*cellRecord
	settled   int
	done      int
	failed    int
	cancelled int
	cached    int
	aggregate *Aggregate
	aggErr    string
	doneCh    chan struct{}
	events    sse.Log[SweepEvent]
}

// viewLocked assembles the wire view; the caller holds s.mu.
func (s *sweep) viewLocked(withCells bool) SweepView {
	var owner string
	if s.acct != nil && s.acct.Name() != tenant.AnonymousName {
		owner = s.acct.Name()
	}
	v := SweepView{
		ID:             s.id,
		Kind:           s.kind,
		State:          s.state,
		Tenant:         owner,
		TotalCells:     len(s.cells),
		SettledCells:   s.settled,
		DoneCells:      s.done,
		FailedCells:    s.failed,
		CancelledCells: s.cancelled,
		CachedCells:    s.cached,
		Aggregate:      s.aggregate,
		AggregateError: s.aggErr,
	}
	if withCells {
		v.Cells = make([]CellView, len(s.cells))
		for i, rec := range s.cells {
			v.Cells[i] = rec.view()
		}
	}
	return v
}

// Manager owns sweep lifecycles over one Runner. Create it with
// NewManager, submit with Submit, and stop it with Close. All methods
// are safe for concurrent use.
type Manager struct {
	runner Runner
	cfg    Config
	// anon is the unlimited account sweeps run under when no registry
	// is configured (or a caller passes a nil account).
	anon *tenant.Account

	mu      sync.Mutex
	sweeps  map[string]*sweep
	settled []string
	nextID  uint64
	closed  bool
	// journaled holds the unsettled journaled sweeps — the working set
	// the next compaction snapshot folds in.
	journaled map[string]*sweep

	journalReplayed atomic.Int64

	wg sync.WaitGroup
}

// NewManager builds a Manager draining sweeps through the given
// runner.
func NewManager(runner Runner, cfg Config) (*Manager, error) {
	if runner == nil {
		return nil, errors.New("experiment: nil runner")
	}
	return &Manager{
		runner:    runner,
		cfg:       cfg.withDefaults(),
		anon:      tenant.NewAnonymous(),
		sweeps:    make(map[string]*sweep),
		journaled: make(map[string]*sweep),
	}, nil
}

// Close cancels every running sweep and waits for their workers to
// settle. Safe to call more than once.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	for _, s := range m.sweeps {
		s.cancel()
	}
	m.mu.Unlock()
	m.wg.Wait()
}

// Submit validates and expands a sweep, launches its cell workers, and
// returns the sweep ID to poll. Expansion errors (ErrBadSweep) reject
// the whole sweep before anything runs. With a journal configured, the
// accepted request is fsynced before any cell becomes runnable; a
// journal write failure rejects the sweep with serve.ErrNotDurable
// rather than half-accepting it.
func (m *Manager) Submit(req SweepRequest) (string, error) {
	return m.SubmitAs(nil, req)
}

// SubmitAs is Submit on behalf of a tenant account (nil means the
// manager's anonymous account). The sweep is reserved against the
// tenant's MaxConcurrentSweeps quota before it is journaled or
// launched; tenant.ErrQuotaExceeded rejects it with nothing admitted.
// The reservation is held until the sweep settles.
func (m *Manager) SubmitAs(acct *tenant.Account, req SweepRequest) (string, error) {
	if acct == nil {
		acct = m.anon
	}
	exp, err := expand(req, m.cfg.MaxCells)
	if err != nil {
		return "", err
	}
	var reqJSON []byte
	if m.cfg.Journal != nil {
		if reqJSON, err = json.Marshal(req); err != nil {
			return "", fmt.Errorf("experiment: encoding request for journal: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &sweep{
		kind:    exp.kind,
		agg:     exp.agg,
		ctx:     ctx,
		cancel:  cancel,
		acct:    acct,
		state:   SweepRunning,
		doneCh:  make(chan struct{}),
		reqJSON: reqJSON,
	}
	for i := range exp.cells {
		s.cells = append(s.cells, &cellRecord{cell: exp.cells[i], state: cellPending})
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		return "", ErrManagerClosed
	}
	if err := acct.TryAdmitSweep(); err != nil {
		m.mu.Unlock()
		cancel()
		return "", err
	}
	m.nextID++
	s.id = fmt.Sprintf("s-%06d", m.nextID)
	s.publishLocked(SweepEvent{Type: EventSweep, State: SweepRunning})
	m.sweeps[s.id] = s
	if m.cfg.Journal != nil {
		// Admit under m.mu, like every admission: compaction holds m.mu
		// across its snapshot and truncate, so this record can never
		// land in a window the truncate erases.
		var owner string
		if acct != m.anon {
			owner = acct.Name()
		}
		if jerr := m.cfg.Journal.AppendJSON(recSweepAdmit, sweepAdmitRecord{ID: s.id, Request: reqJSON, Tenant: owner}); jerr != nil {
			delete(m.sweeps, s.id)
			acct.CancelSweepAdmission()
			m.mu.Unlock()
			cancel()
			return "", fmt.Errorf("%w: journaling sweep admission: %w", serve.ErrNotDurable, jerr)
		}
		m.journaled[s.id] = s
	}
	m.mu.Unlock()

	m.wg.Add(1)
	go m.run(s)
	return s.id, nil
}

// run drains one sweep: Parallel workers pull cell indices until the
// grid is exhausted, then the aggregate is finalized and the terminal
// event published. Cells already settled — restored by a journal
// Replay — are skipped, so a resumed sweep re-runs only unfinished
// work; a fully-restored sweep finalizes immediately from its records.
func (m *Manager) run(s *sweep) {
	defer m.wg.Done()
	idxc := make(chan int, len(s.cells))
	pending := 0
	for i := range s.cells {
		if s.cells[i].state == cellPending {
			idxc <- i
			pending++
		}
	}
	close(idxc)
	workers := m.cfg.Parallel
	if workers > pending {
		workers = pending
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxc {
				m.runCell(s, i)
			}
		}()
	}
	wg.Wait()
	m.finalize(s)
}

// runCell executes one cell through the runner and settles its record.
// Transport errors with a live sweep mark the cell failed; a cancelled
// sweep marks it cancelled. A settled job view is mirrored onto the
// cell, with the kind's metric extracted from a done result.
func (m *Manager) runCell(s *sweep, i int) {
	rec := s.cells[i]
	if s.ctx.Err() != nil {
		m.settleCell(s, rec, cellCancelled, false, context.Canceled.Error(), 0, false, nil)
		return
	}
	s.mu.Lock()
	rec.state = cellRunning
	s.mu.Unlock()
	view, err := m.runner.RunJob(s.ctx, s.acct, rec.cell.job)
	switch {
	case err != nil && s.ctx.Err() != nil:
		m.settleCell(s, rec, cellCancelled, false, context.Canceled.Error(), 0, false, nil)
	case err != nil:
		m.settleCell(s, rec, cellFailed, false, err.Error(), 0, false, nil)
	case view.State == serve.Done.String():
		metric, merr := s.agg.metric(rec.cell, view.Result)
		if merr != nil {
			m.settleCell(s, rec, cellFailed, view.Cached, merr.Error(), 0, false, nil)
			return
		}
		m.settleCell(s, rec, cellDone, view.Cached, "", metric, true, view.Result)
	case view.State == serve.Cancelled.String():
		m.settleCell(s, rec, cellCancelled, false, view.Error, 0, false, nil)
	default:
		m.settleCell(s, rec, cellFailed, false, view.Error, 0, false, nil)
	}
}

// settleCell records a cell's terminal state, updates the sweep
// counters, publishes the cell event, and (for journaled sweeps)
// appends the settlement to the journal. The durable record is captured
// under s.mu — finalize may release rec.res the instant the last cell
// settles — but appended after the unlock, so the fsync never stalls
// concurrent settlements.
func (m *Manager) settleCell(s *sweep, rec *cellRecord, state string, cached bool, errMsg string, metric float64, hasMetric bool, res *serve.ResultView) {
	s.mu.Lock()
	rec.state = state
	rec.cached = cached
	rec.err = errMsg
	rec.metric, rec.hasMetric = metric, hasMetric
	rec.res = res
	s.settled++
	switch state {
	case cellDone:
		s.done++
	case cellFailed:
		s.failed++
	case cellCancelled:
		s.cancelled++
	}
	if cached {
		s.cached++
	}
	cv := rec.view()
	s.publishLocked(SweepEvent{Type: EventCell, State: state, Cell: &cv})
	journaled := s.reqJSON != nil
	var crec cellSettleRecord
	if journaled {
		crec = settleRecordLocked(s, rec)
	}
	s.mu.Unlock()
	if journaled {
		m.journalCellSettle(crec)
	}
}

// finalize settles the sweep once every cell settled: if any cell was
// reaped as cancelled the sweep is SweepCancelled; otherwise the
// aggregator folds the done cells and the sweep completes (aggregation
// errors are reported in the view, not as a sweep failure). Deciding
// from the cancelled-cell count rather than ctx state means a Cancel
// that lands after the last cell already settled does not discard a
// fully-computed sweep.
func (m *Manager) finalize(s *sweep) {
	s.mu.Lock()
	cancelled := s.cancelled > 0
	s.mu.Unlock()
	var agg *Aggregate
	var aggErr string
	if !cancelled {
		// All cells have settled; records are no longer mutated, so the
		// (possibly slow) fit runs outside the sweep lock.
		a, err := s.agg.finalize(s.cells)
		agg = a
		if err != nil {
			aggErr = err.Error()
		}
	}
	s.mu.Lock()
	if cancelled {
		s.state = SweepCancelled
	} else {
		s.state = SweepCompleted
		s.aggregate = agg
		s.aggErr = aggErr
	}
	// The aggregate is computed (or forfeited); release every cell's
	// retained result so settled sweeps kept for lookup don't pin shot
	// histograms for the whole retention window.
	for _, rec := range s.cells {
		rec.res = nil
	}
	view := s.viewLocked(true)
	s.publishLocked(SweepEvent{Type: EventSweep, State: s.state, Sweep: &view})
	close(s.doneCh)
	terminal := s.state
	s.mu.Unlock()
	s.cancel()
	// Release the tenant's concurrent-sweep reservation the moment the
	// sweep is terminal (before retention bookkeeping, so a waiting
	// submitter observes the freed slot no later than the settled view).
	s.acct.SweepDone()
	if s.reqJSON != nil {
		m.journalSweepSettle(s, terminal)
	}
	m.retain(s.id)
}

// retain records a settled sweep and prunes the oldest past the
// RetainSweeps bound.
func (m *Manager) retain(id string) {
	if m.cfg.RetainSweeps == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.settled = append(m.settled, id)
	for len(m.settled) > m.cfg.RetainSweeps {
		delete(m.sweeps, m.settled[0])
		m.settled = m.settled[1:]
	}
}

// sweepByID looks up a sweep record.
func (m *Manager) sweepByID(id string) (*sweep, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sweeps[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSweep, id)
	}
	return s, nil
}

// Status returns the sweep's current wire view (including cells).
func (m *Manager) Status(id string) (SweepView, error) {
	s, err := m.sweepByID(id)
	if err != nil {
		return SweepView{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewLocked(true), nil
}

// Await blocks until the sweep settles or ctx expires, returning the
// settled view. The error is transport-only (unknown ID, expired ctx);
// failed cells and aggregation errors are reported inside the view.
func (m *Manager) Await(ctx context.Context, id string) (SweepView, error) {
	s, err := m.sweepByID(id)
	if err != nil {
		return SweepView{}, err
	}
	select {
	case <-s.doneCh:
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.viewLocked(true), nil
	case <-ctx.Done():
		return SweepView{}, ctx.Err()
	}
}

// Cancel aborts a running sweep: every cell that has not settled is
// reaped as cancelled (in-flight jobs through their contexts, pending
// cells immediately) and the sweep settles SweepCancelled.
// ErrSweepFinished reports a sweep that already settled.
func (m *Manager) Cancel(id string) error {
	s, err := m.sweepByID(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	running := s.state == SweepRunning
	s.mu.Unlock()
	if !running {
		return ErrSweepFinished
	}
	s.cancel()
	return nil
}
