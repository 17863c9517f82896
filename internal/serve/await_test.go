package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"quditkit/internal/core"
	"quditkit/internal/httpapi"
)

// blockedService builds a single-shard service with one slow blocker
// running and one victim job queued behind it, so tests can race
// waiters against the victim's settlement deterministically. It
// returns the service and both IDs; the caller unblocks the victim by
// awaiting the blocker.
func blockedService(t *testing.T, cfg Config) (*Service, JobID, JobID) {
	t.Helper()
	cfg.Shards = 1
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 8
	}
	s := newTestService(t, cfg)
	blocker, err := s.Enqueue(ghz(t), core.WithShots(100000), core.WithBackend(core.Trajectory), core.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := s.Enqueue(shiftCircuit(t, 1), core.WithShots(4))
	if err != nil {
		t.Fatal(err)
	}
	return s, blocker, victim
}

// TestAwaitViewSurvivesRetentionPrune: a waiter that resolved its job
// before a retention prune still receives the outcome — AwaitView
// holds the record pointer across the wait — while the pruned ID is
// gone for every later caller.
func TestAwaitViewSurvivesRetentionPrune(t *testing.T) {
	s, blocker, victim := blockedService(t, Config{RetainJobs: 1, CacheSize: -1})

	// The waiter attaches while the victim is still queued.
	type outcome struct {
		view JobView
		err  error
	}
	got := make(chan outcome, 1)
	go func() {
		view, err := s.AwaitView(context.Background(), victim)
		got <- outcome{view, err}
	}()
	// Give the waiter time to resolve the record, then let everything
	// settle and churn the settled table far past the retention bound.
	time.Sleep(20 * time.Millisecond)
	if _, err := s.Await(context.Background(), blocker); err != nil {
		t.Fatal(err)
	}
	for k := 2; k < 6; k++ {
		id, err := s.Enqueue(shiftCircuit(t, k), core.WithShots(4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Await(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}

	out := <-got
	if out.err != nil {
		t.Fatalf("pre-prune waiter lost the outcome: %v", out.err)
	}
	if out.view.State != Done.String() || out.view.Result == nil {
		t.Fatalf("pre-prune waiter got %+v", out.view)
	}
	// The ID itself has been pruned: late arrivals get ErrUnknownJob.
	if _, err := s.AwaitView(context.Background(), victim); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("post-prune AwaitView = %v, want ErrUnknownJob", err)
	}
	if _, err := s.Status(victim); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("post-prune Status = %v, want ErrUnknownJob", err)
	}
}

// TestAwaitViewCancelledContext: an expiring context frees the waiter
// with ctx.Err() while the job itself keeps running and settles
// normally for the next waiter.
func TestAwaitViewCancelledContext(t *testing.T) {
	s, blocker, victim := blockedService(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := s.AwaitView(ctx, victim); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AwaitView under expired ctx = %v, want DeadlineExceeded", err)
	}
	// The abandoned wait did not corrupt the job: it still settles.
	if _, err := s.Await(context.Background(), blocker); err != nil {
		t.Fatal(err)
	}
	view, err := s.AwaitView(context.Background(), victim)
	if err != nil || view.State != Done.String() {
		t.Fatalf("victim after abandoned wait: %+v, %v", view, err)
	}
}

// TestAwaitViewConcurrentWaitersSeeCancellation: many waiters block on
// one queued job; CancelJob settles it once and every waiter receives
// the same terminal cancelled view.
func TestAwaitViewConcurrentWaitersSeeCancellation(t *testing.T) {
	s, _, victim := blockedService(t, Config{})
	const waiters = 8
	views := make([]JobView, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i], errs[i] = s.AwaitView(context.Background(), victim)
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the waiters park
	if err := s.CancelJob(victim); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if views[i].State != Cancelled.String() {
			t.Fatalf("waiter %d saw state %q, want cancelled", i, views[i].State)
		}
	}
}

// TestHTTPLongPollWaitAndPrune: the HTTP ?wait=1 surface of the same
// contract — a long poll opened before settlement returns the full
// terminal view, and once retention prunes the record the same URL is
// a 404.
func TestHTTPLongPollWaitAndPrune(t *testing.T) {
	s := newTestService(t, Config{Shards: 1, QueueDepth: 8, RetainJobs: 1, CacheSize: -1})
	ts := newHandlerServer(t, s)

	req := ghzRequest()
	req.Shots = 50000
	req.Backend = "trajectory"
	view, status := postJob(t, ts+"/v1/jobs", req)
	if status != http.StatusOK && status != http.StatusAccepted {
		t.Fatalf("submit: %d %+v", status, view)
	}
	var settled JobView
	if code := getJSON(t, ts+"/v1/jobs/"+view.ID+"?wait=1", &settled); code != http.StatusOK {
		t.Fatalf("long poll: %d", code)
	}
	if settled.State != Done.String() || settled.Result == nil {
		t.Fatalf("long poll view %+v", settled)
	}
	// Churn the settled table past the retention bound...
	for k := 0; k < 3; k++ {
		churn := JobRequest{
			Circuit: CircuitSpec{Dims: []int{3}, Ops: []OpSpec{{Gate: "x", Targets: []int{0}}}},
			Shots:   4, Seed: ptrInt64(int64(k)),
		}
		if v, code := postJob(t, ts+"/v1/jobs?wait=1", churn); code != http.StatusOK {
			t.Fatalf("churn %d: %d %+v", k, code, v)
		}
	}
	// ...and the pruned ID long-polls straight to 404 instead of
	// hanging forever on a record that no longer exists.
	var gone httpapi.Envelope
	if code := getJSON(t, ts+"/v1/jobs/"+view.ID+"?wait=1", &gone); code != http.StatusNotFound {
		t.Fatalf("pruned long poll: %d %v", code, gone)
	}
}

// TestHTTPLongPollClientDisconnect: a long poll abandoned by the
// client releases server-side without settling the job, and the job
// remains pollable.
func TestHTTPLongPollClientDisconnect(t *testing.T) {
	s := newTestService(t, Config{Shards: 1, QueueDepth: 8})
	ts := newHandlerServer(t, s)
	req := ghzRequest()
	req.Shots = 100000
	req.Backend = "trajectory"
	view, _ := postJob(t, ts+"/v1/jobs", req)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, ts+"/v1/jobs/"+view.ID+"?wait=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := http.DefaultClient.Do(hr); err == nil {
		t.Fatal("abandoned long poll returned before the job settled")
	}
	// The job is unaffected: a fresh (patient) poll gets the result.
	var settled JobView
	if code := getJSON(t, ts+"/v1/jobs/"+view.ID+"?wait=1", &settled); code != http.StatusOK || settled.State != Done.String() {
		t.Fatalf("poll after disconnect: %d %+v", code, settled)
	}
}

// newHandlerServer wraps an existing service in an HTTP test server
// (newTestServer always builds its own service).
func newHandlerServer(t *testing.T, s *Service) string {
	t.Helper()
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(ts.Close)
	return ts.URL
}

func ptrInt64(v int64) *int64 { return &v }
