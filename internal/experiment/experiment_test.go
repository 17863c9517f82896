package experiment

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"quditkit/internal/rb"
	"quditkit/internal/serve"
	"quditkit/internal/tenant"
)

// fakeRunner scripts cell outcomes by inspecting each job, standing in
// for both real topologies.
type fakeRunner struct {
	calls atomic.Int64
	fn    func(ctx context.Context, req serve.JobRequest) (serve.JobView, error)
}

func (f *fakeRunner) RunJob(ctx context.Context, _ *tenant.Account, req serve.JobRequest) (serve.JobView, error) {
	f.calls.Add(1)
	return f.fn(ctx, req)
}

// doneView fabricates a settled job whose histogram puts weight w on
// |0> out of shots.
func doneView(shots, zero int, cached bool) serve.JobView {
	counts := map[string]int{}
	if zero > 0 {
		counts["0"] = zero
	}
	if rest := shots - zero; rest > 0 {
		counts["1"] = rest
	}
	return serve.JobView{
		State:  serve.Done.String(),
		Cached: cached,
		Result: &serve.ResultView{Shots: shots, Counts: counts},
	}
}

func newTestManager(t *testing.T, r Runner, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// awaitSweep waits for settlement with a test-scoped deadline.
func awaitSweep(t *testing.T, m *Manager, id string) SweepView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	view, err := m.Await(ctx, id)
	if err != nil {
		t.Fatalf("await %s: %v", id, err)
	}
	return view
}

// TestSweepLifecycle drives one RB sweep to completion through a fake
// runner: every cell settles done, counters add up, the aggregate is
// fitted, and the event log replays the full history.
func TestSweepLifecycle(t *testing.T) {
	// Survival decays with circuit size, so the decay fit has signal:
	// ops = 2*length, survival = 1/(1+ops).
	runner := &fakeRunner{fn: func(_ context.Context, req serve.JobRequest) (serve.JobView, error) {
		shots := 1000
		zero := shots - 20*len(req.Circuit.Ops)
		return doneView(shots, zero, false), nil
	}}
	m := newTestManager(t, runner, Config{})
	id, err := m.Submit(rbReq())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(id, "s-") {
		t.Fatalf("sweep id %q", id)
	}
	view := awaitSweep(t, m, id)
	if view.State != SweepCompleted {
		t.Fatalf("state %q, want completed", view.State)
	}
	if view.TotalCells != 6 || view.SettledCells != 6 || view.DoneCells != 6 {
		t.Fatalf("counters %+v", view)
	}
	if view.FailedCells != 0 || view.CancelledCells != 0 {
		t.Fatalf("unexpected failures: %+v", view)
	}
	if got := runner.calls.Load(); got != 6 {
		t.Fatalf("runner saw %d calls, want 6", got)
	}
	if view.Aggregate == nil || view.Aggregate.RB == nil {
		t.Fatalf("no RB aggregate: %+v", view)
	}
	rb := view.Aggregate.RB
	if len(rb.Points) != 3 {
		t.Fatalf("decay curve has %d lengths, want 3", len(rb.Points))
	}
	if rb.DecayRate <= 0 || rb.DecayRate >= 1 {
		t.Fatalf("decay rate %v outside (0,1)", rb.DecayRate)
	}
	if view.AggregateError != "" {
		t.Fatalf("aggregate error %q", view.AggregateError)
	}
	for _, cv := range view.Cells {
		if cv.State != cellDone || cv.Metric == nil {
			t.Fatalf("cell %d: %+v", cv.Index, cv)
		}
	}

	// Status after settlement returns the same view; the event log holds
	// the initial event, one per cell, and the terminal event.
	again, err := m.Status(id)
	if err != nil || again.State != SweepCompleted {
		t.Fatalf("status after settle: %+v, %v", again, err)
	}
	s, err := m.sweepByID(id)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	events, _ := s.events.Since(-1)
	s.mu.Unlock()
	if len(events) != 1+6+1 {
		t.Fatalf("event log has %d entries, want 8", len(events))
	}
	if events[0].Type != EventSweep || events[0].State != SweepRunning {
		t.Fatalf("first event %+v", events[0])
	}
	last := events[len(events)-1]
	if !last.terminal() || last.Sweep == nil || last.Sweep.Aggregate == nil {
		t.Fatalf("terminal event %+v", last)
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// TestSweepPartialFailure fails exactly one cell: the sweep still
// completes, the cell is marked failed with its error, and the
// aggregate is fitted from the surviving cells.
func TestSweepPartialFailure(t *testing.T) {
	var failed atomic.Bool
	runner := &fakeRunner{fn: func(_ context.Context, req serve.JobRequest) (serve.JobView, error) {
		// Fail the first length-4 cell (8 ops) we see.
		if len(req.Circuit.Ops) == 8 && failed.CompareAndSwap(false, true) {
			return serve.JobView{}, errors.New("worker exploded")
		}
		shots := 1000
		return doneView(shots, shots-20*len(req.Circuit.Ops), false), nil
	}}
	m := newTestManager(t, runner, Config{})
	id, err := m.Submit(rbReq())
	if err != nil {
		t.Fatal(err)
	}
	view := awaitSweep(t, m, id)
	if view.State != SweepCompleted {
		t.Fatalf("state %q: a failed cell must not fail the sweep", view.State)
	}
	if view.FailedCells != 1 || view.DoneCells != 5 {
		t.Fatalf("counters: %d failed / %d done", view.FailedCells, view.DoneCells)
	}
	var cell *CellView
	for i := range view.Cells {
		if view.Cells[i].State == cellFailed {
			cell = &view.Cells[i]
		}
	}
	if cell == nil || !strings.Contains(cell.Error, "worker exploded") {
		t.Fatalf("failed cell not reported: %+v", cell)
	}
	// Three lengths with sequences=2: the failed cell's length keeps its
	// sibling, so the fit still has all 3 lengths.
	if view.Aggregate == nil || view.Aggregate.RB == nil || len(view.Aggregate.RB.Points) != 3 {
		t.Fatalf("aggregate after partial failure: %+v", view.Aggregate)
	}
}

// TestSweepAggregateError drives every cell of one length to failure:
// the sweep completes but the decay fit cannot run, reported via
// AggregateError alongside the partial curve.
func TestSweepAggregateError(t *testing.T) {
	runner := &fakeRunner{fn: func(_ context.Context, req serve.JobRequest) (serve.JobView, error) {
		if len(req.Circuit.Ops) != 2 { // every cell but length 1
			return serve.JobView{State: serve.Failed.String(), Error: "no capacity"}, nil
		}
		return doneView(1000, 900, false), nil
	}}
	m := newTestManager(t, runner, Config{})
	id, err := m.Submit(rbReq())
	if err != nil {
		t.Fatal(err)
	}
	view := awaitSweep(t, m, id)
	if view.State != SweepCompleted {
		t.Fatalf("state %q", view.State)
	}
	if view.AggregateError == "" || !strings.Contains(view.AggregateError, "rb fit needs") {
		t.Fatalf("aggregate error %q", view.AggregateError)
	}
	if view.Aggregate == nil || view.Aggregate.RB == nil || len(view.Aggregate.RB.Points) != 1 {
		t.Fatalf("partial aggregate: %+v", view.Aggregate)
	}
}

// TestSweepCancel blocks every in-flight cell and cancels the sweep:
// all unsettled cells are reaped as cancelled, the sweep settles
// SweepCancelled without an aggregate, and a second Cancel reports
// ErrSweepFinished.
func TestSweepCancel(t *testing.T) {
	started := make(chan struct{}, 16)
	runner := &fakeRunner{fn: func(ctx context.Context, _ serve.JobRequest) (serve.JobView, error) {
		started <- struct{}{}
		<-ctx.Done()
		return serve.JobView{}, ctx.Err()
	}}
	m := newTestManager(t, runner, Config{Parallel: 2})
	id, err := m.Submit(rbReq())
	if err != nil {
		t.Fatal(err)
	}
	// Both workers are wedged in-flight; the rest of the grid is
	// pending.
	<-started
	<-started
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	view := awaitSweep(t, m, id)
	if view.State != SweepCancelled {
		t.Fatalf("state %q", view.State)
	}
	if view.CancelledCells != view.TotalCells || view.SettledCells != view.TotalCells {
		t.Fatalf("cancellation left cells unsettled: %+v", view)
	}
	if view.Aggregate != nil {
		t.Fatalf("cancelled sweep computed an aggregate")
	}
	for _, cv := range view.Cells {
		if cv.State != cellCancelled {
			t.Fatalf("cell %d state %q", cv.Index, cv.State)
		}
	}
	if err := m.Cancel(id); !errors.Is(err, ErrSweepFinished) {
		t.Fatalf("second cancel: %v", err)
	}
}

// TestFinalizeCancelAfterLastSettle pins the race between Cancel and
// the last cell settling: when every cell already settled done, a
// cancel that lands before finalize must not discard the computed
// sweep — finalize decides from the cancelled-cell count, not ctx
// state. It also checks finalize releases the retained per-cell
// histograms once the aggregate is folded.
func TestFinalizeCancelAfterLastSettle(t *testing.T) {
	runner := &fakeRunner{fn: func(_ context.Context, _ serve.JobRequest) (serve.JobView, error) {
		return doneView(100, 80, false), nil
	}}
	m := newTestManager(t, runner, Config{})
	exp, err := expand(rbReq(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &sweep{
		id: "s-test", kind: exp.kind, agg: exp.agg, acct: m.anon,
		ctx: ctx, cancel: cancel,
		state: SweepRunning, doneCh: make(chan struct{}),
	}
	s.publishLocked(SweepEvent{Type: EventSweep, State: SweepRunning})
	for i := range exp.cells {
		s.cells = append(s.cells, &cellRecord{cell: exp.cells[i], state: cellPending})
	}
	for _, rec := range s.cells {
		shots := 1000
		view := doneView(shots, shots-20*len(rec.cell.job.Circuit.Ops), false)
		metric, merr := s.agg.metric(rec.cell, view.Result)
		if merr != nil {
			t.Fatal(merr)
		}
		m.settleCell(s, rec, cellDone, false, "", metric, true, view.Result)
	}
	// The cancel lands after the last settlement but before finalize.
	cancel()
	m.finalize(s)
	if s.state != SweepCompleted {
		t.Fatalf("state %q: late cancel discarded a fully-settled sweep", s.state)
	}
	if s.aggregate == nil || s.aggregate.RB == nil {
		t.Fatalf("aggregate missing after late cancel: %+v", s.aggregate)
	}
	for _, rec := range s.cells {
		if rec.res != nil {
			t.Fatalf("cell %d retains its result view after finalize", rec.cell.index)
		}
	}
}

// TestSweepCachedCells marks runner results cached and checks the
// counter propagates.
func TestSweepCachedCells(t *testing.T) {
	runner := &fakeRunner{fn: func(_ context.Context, _ serve.JobRequest) (serve.JobView, error) {
		return doneView(100, 80, true), nil
	}}
	m := newTestManager(t, runner, Config{})
	id, err := m.Submit(rbReq())
	if err != nil {
		t.Fatal(err)
	}
	view := awaitSweep(t, m, id)
	if view.CachedCells != view.TotalCells {
		t.Fatalf("cached %d of %d", view.CachedCells, view.TotalCells)
	}
}

// TestManagerErrors covers the error surface: bad submissions, unknown
// IDs, closed manager, nil runner.
func TestManagerErrors(t *testing.T) {
	if _, err := NewManager(nil, Config{}); err == nil {
		t.Fatal("nil runner accepted")
	}
	runner := &fakeRunner{fn: func(_ context.Context, _ serve.JobRequest) (serve.JobView, error) {
		return doneView(100, 80, false), nil
	}}
	m := newTestManager(t, runner, Config{})

	bad := rbReq()
	bad.Shots = 0
	if _, err := m.Submit(bad); !errors.Is(err, ErrBadSweep) {
		t.Fatalf("bad submit: %v", err)
	}
	if _, err := m.Status("s-999999"); !errors.Is(err, ErrUnknownSweep) {
		t.Fatalf("unknown status: %v", err)
	}
	if _, err := m.Await(context.Background(), "nope"); !errors.Is(err, ErrUnknownSweep) {
		t.Fatalf("unknown await: %v", err)
	}
	if err := m.Cancel("nope"); !errors.Is(err, ErrUnknownSweep) {
		t.Fatalf("unknown cancel: %v", err)
	}

	m.Close()
	if _, err := m.Submit(rbReq()); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

// TestManagerCloseCancelsRunning wedges a sweep and closes the
// manager: Close must reap it and return.
func TestManagerCloseCancelsRunning(t *testing.T) {
	runner := &fakeRunner{fn: func(ctx context.Context, _ serve.JobRequest) (serve.JobView, error) {
		<-ctx.Done()
		return serve.JobView{}, ctx.Err()
	}}
	m, err := NewManager(runner, Config{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(rbReq())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		m.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not reap the running sweep")
	}
	view, err := m.Status(id)
	if err != nil || view.State != SweepCancelled {
		t.Fatalf("after close: %+v, %v", view, err)
	}
}

// TestRetention prunes the oldest settled sweeps past the bound.
func TestRetention(t *testing.T) {
	runner := &fakeRunner{fn: func(_ context.Context, _ serve.JobRequest) (serve.JobView, error) {
		return doneView(100, 80, false), nil
	}}
	m := newTestManager(t, runner, Config{RetainSweeps: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := m.Submit(rbReq())
		if err != nil {
			t.Fatal(err)
		}
		awaitSweep(t, m, id)
		ids = append(ids, id)
	}
	if _, err := m.Status(ids[0]); !errors.Is(err, ErrUnknownSweep) {
		t.Fatalf("oldest sweep survived retention: %v", err)
	}
	for _, id := range ids[1:] {
		if _, err := m.Status(id); err != nil {
			t.Fatalf("retained sweep %s: %v", id, err)
		}
	}
}

// TestParallelBounds checks the worker pool honors Parallel: with
// Parallel=1 the runner never sees overlapping calls.
func TestParallelBounds(t *testing.T) {
	var inFlight, peak atomic.Int64
	runner := &fakeRunner{fn: func(_ context.Context, _ serve.JobRequest) (serve.JobView, error) {
		n := inFlight.Add(1)
		if p := peak.Load(); n > p {
			peak.CompareAndSwap(p, n)
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return doneView(100, 80, false), nil
	}}
	m := newTestManager(t, runner, Config{Parallel: 1})
	id, err := m.Submit(rbReq())
	if err != nil {
		t.Fatal(err)
	}
	awaitSweep(t, m, id)
	if peak.Load() != 1 {
		t.Fatalf("peak concurrency %d with Parallel=1", peak.Load())
	}
}

// TestSweepIDsAreSequential pins the ID scheme the CLI and docs rely
// on.
func TestSweepIDsAreSequential(t *testing.T) {
	runner := &fakeRunner{fn: func(_ context.Context, _ serve.JobRequest) (serve.JobView, error) {
		return doneView(100, 80, false), nil
	}}
	m := newTestManager(t, runner, Config{})
	for i := 1; i <= 2; i++ {
		id, err := m.Submit(rbReq())
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("s-%06d", i); id != want {
			t.Fatalf("sweep id %q, want %q", id, want)
		}
		awaitSweep(t, m, id)
	}
}

// TestRBAggregateSaturated: when every length's survival sits at the
// depolarized floor, the sweep keeps its survival curve and reports
// the shared RB fit's error as its aggregate error.
func TestRBAggregateSaturated(t *testing.T) {
	a := &rbAggregator{dim: 3}
	var cells []*cellRecord
	for _, m := range []float64{1, 2, 4} {
		cells = append(cells, &cellRecord{
			cell:  cell{params: map[string]float64{"length": m}},
			state: cellDone, metric: 1.0 / 3, hasMetric: true,
		})
	}
	agg, err := a.finalize(cells)
	if !errors.Is(err, rb.ErrBadProtocol) || !strings.Contains(err.Error(), "decay fully saturated") {
		t.Fatalf("err = %v, want the rb fit's saturation error", err)
	}
	if agg == nil || agg.RB == nil || len(agg.RB.Points) != 3 {
		t.Fatalf("partial aggregate %+v", agg)
	}
}
