package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"quditkit/internal/circuit"
	"quditkit/internal/core"
	"quditkit/internal/gates"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
)

func testProcessor(t *testing.T) *core.Processor {
	t.Helper()
	proc, err := core.NewCompactProcessor(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return proc
}

func ghz(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := circuit.New(hilbert.Uniform(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	c.MustAppend(gates.DFT(3), 0)
	c.MustAppend(gates.CSUM(3, 3), 0, 1)
	c.MustAppend(gates.CSUM(3, 3), 0, 2)
	return c
}

// shiftCircuit returns a distinct single-qutrit circuit per k, for
// populating the cache with many distinct keys.
func shiftCircuit(t *testing.T, k int) *circuit.Circuit {
	t.Helper()
	c, err := circuit.New(hilbert.Uniform(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= k; i++ {
		c.MustAppend(gates.X(3), 0)
	}
	return c
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(testProcessor(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestServiceEnqueueAwaitMatchesSubmit(t *testing.T) {
	s := newTestService(t, Config{})
	id, err := s.Enqueue(ghz(t), core.WithShots(256))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Await(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}

	// The async path must agree with the synchronous Submit path on an
	// identically-seeded processor, shot for shot.
	direct, err := testProcessor(t).SubmitOne(ghz(t), core.WithShots(256))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Counts.Equal(direct.Counts) {
		t.Errorf("async counts %v != sync counts %v", res.Counts, direct.Counts)
	}
	if res.Seed != direct.Seed {
		t.Errorf("async seed %d != sync seed %d", res.Seed, direct.Seed)
	}

	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Done || st.Cached {
		t.Errorf("status = %+v, want fresh Done", st)
	}
}

func TestServiceStatusLifecycleAndErrors(t *testing.T) {
	s := newTestService(t, Config{})
	if _, err := s.Status(JobID("j-999999")); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown id err = %v", err)
	}
	if _, err := s.Enqueue(nil); err == nil {
		t.Error("nil circuit accepted")
	}

	// A failing job (statevector backend rejects noise) settles Failed
	// without disturbing the job queued behind it.
	noisy := core.WithNoise(noise.Model{Damping: 0.1})
	badID, err := s.Enqueue(ghz(t), noisy)
	if err != nil {
		t.Fatal(err)
	}
	okID, err := s.Enqueue(shiftCircuit(t, 0), core.WithShots(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Await(context.Background(), badID); err == nil {
		t.Error("noisy statevector job did not fail")
	}
	if _, err := s.Await(context.Background(), okID); err != nil {
		t.Errorf("job behind the failing one failed too: %v", err)
	}
	st, _ := s.Status(badID)
	if st.State != Failed || st.Err == nil {
		t.Fatalf("bad job status = %+v, want Failed", st)
	}
	// Its error is the backend's own, not core.JobError's position in
	// a one-job Submit ("job 0: ...").
	_, direct := testProcessor(t).SubmitOne(ghz(t), noisy)
	var je *core.JobError
	if !errors.As(direct, &je) {
		t.Fatalf("SubmitOne error %v is not a *core.JobError", direct)
	}
	if view, _ := s.jobView(badID); st.Err.Error() != je.Err.Error() || view.Error != je.Err.Error() {
		t.Errorf("bad job error %q (view %q), want %q", st.Err, view.Error, je.Err)
	}
}

func TestServiceCancelQueuedJob(t *testing.T) {
	// One shard: occupy the worker with a long noisy trajectory job, so
	// the next job is reliably still queued.
	s := newTestService(t, Config{Shards: 1, CacheSize: -1})
	model := noise.Model{Damping: 1e-3, Dephasing: 1e-3}
	longID, err := s.Enqueue(ghz(t),
		core.WithBackend(core.Trajectory), core.WithNoise(model), core.WithShots(500_000))
	if err != nil {
		t.Fatal(err)
	}
	queuedID, err := s.Enqueue(shiftCircuit(t, 0), core.WithShots(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CancelJob(queuedID); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Status(queuedID)
	if st.State != Cancelled {
		t.Errorf("queued job state after cancel = %v", st.State)
	}
	if err := s.CancelJob(queuedID); !errors.Is(err, ErrFinished) {
		t.Errorf("double cancel err = %v", err)
	}

	// Cancel the running job too; it must settle promptly.
	if err := s.CancelJob(longID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.Await(ctx, longID); !errors.Is(err, context.Canceled) {
		t.Errorf("running job err after cancel = %v", err)
	}
	st, _ = s.Status(longID)
	if st.State != Cancelled {
		t.Errorf("running job state after cancel = %v", st.State)
	}
}

func TestServiceQueueFullBackpressure(t *testing.T) {
	s := newTestService(t, Config{Shards: 1, QueueDepth: 1, CacheSize: -1})
	model := noise.Model{Damping: 1e-3}
	// Occupy the single worker...
	longID, err := s.Enqueue(ghz(t),
		core.WithBackend(core.Trajectory), core.WithNoise(model), core.WithShots(500_000))
	if err != nil {
		t.Fatal(err)
	}
	// ...then fill the one-slot queue. Distinct circuits avoid the
	// cache; eventually the queue must push back.
	sawFull := false
	var ids []JobID
	for k := 0; k < 50 && !sawFull; k++ {
		id, err := s.Enqueue(shiftCircuit(t, k), core.WithShots(4))
		switch {
		case errors.Is(err, ErrQueueFull):
			sawFull = true
		case err != nil:
			t.Fatal(err)
		default:
			ids = append(ids, id)
		}
	}
	if !sawFull {
		t.Error("bounded queue never reported ErrQueueFull")
	}
	if err := s.CancelJob(longID); err != nil {
		t.Fatal(err)
	}
	// Accepted jobs still drain to completion.
	for _, id := range ids {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := s.Await(ctx, id); err != nil {
			t.Errorf("accepted job %s: %v", id, err)
		}
		cancel()
	}
}

func TestServiceCloseRejectsNewWork(t *testing.T) {
	s, err := New(testProcessor(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Enqueue(shiftCircuit(t, 0), core.WithShots(8))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Close drains queued work before returning.
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Done {
		t.Errorf("job state after Close = %v, want Done", st.State)
	}
	if _, err := s.Enqueue(shiftCircuit(t, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("enqueue after close err = %v", err)
	}
	s.Close() // idempotent
}

func TestEnqueueHonorsCallerContext(t *testing.T) {
	// Park the single worker so the caller-context job stays queued.
	s := newTestService(t, Config{Shards: 1, CacheSize: -1})
	model := noise.Model{Damping: 1e-3}
	longID, err := s.Enqueue(ghz(t),
		core.WithBackend(core.Trajectory), core.WithNoise(model), core.WithShots(500_000))
	if err != nil {
		t.Fatal(err)
	}
	userCtx, cancelUser := context.WithCancel(context.Background())
	id, err := s.Enqueue(shiftCircuit(t, 0), core.WithShots(8), core.WithContext(userCtx))
	if err != nil {
		t.Fatal(err)
	}
	// Cancelling the caller's own context must abort the job exactly
	// like CancelJob would.
	cancelUser()
	if err := s.CancelJob(longID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.Await(ctx, id); !errors.Is(err, context.Canceled) {
		t.Errorf("caller-context job err = %v, want context.Canceled", err)
	}
	if st, _ := s.Status(id); st.State != Cancelled {
		t.Errorf("caller-context job state = %v", st.State)
	}
}

func TestEnqueueCancelledContextBeatsCacheHit(t *testing.T) {
	s := newTestService(t, Config{})
	// Warm the cache.
	warmID, err := s.Enqueue(ghz(t), core.WithShots(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Await(context.Background(), warmID); err != nil {
		t.Fatal(err)
	}
	// A submission whose context is already cancelled settles Cancelled
	// even though its key is cached — outcome must not depend on cache
	// state.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	id, err := s.Enqueue(ghz(t), core.WithShots(64), core.WithContext(dead))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Await(context.Background(), id); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if st, _ := s.Status(id); st.State != Cancelled || st.Cached {
		t.Errorf("status = %+v, want uncached Cancelled", st)
	}
}

func TestServiceJobRetentionBound(t *testing.T) {
	s := newTestService(t, Config{RetainJobs: 2, CacheSize: -1})
	var ids []JobID
	for k := 0; k < 5; k++ {
		id, err := s.Enqueue(shiftCircuit(t, k), core.WithShots(4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Await(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Oldest settled records are forgotten; the most recent survive.
	if _, err := s.Status(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("oldest job still known: %v", err)
	}
	for _, id := range ids[3:] {
		if _, err := s.Status(id); err != nil {
			t.Errorf("recent job %s forgotten: %v", id, err)
		}
	}
}

func TestQueuedDuplicatesSettleFromCache(t *testing.T) {
	// One shard: identical submissions queued behind a running job
	// collapse onto a single simulation, the rest settling from the
	// cache when the worker pops them.
	s := newTestService(t, Config{Shards: 1})
	model := noise.Model{Damping: 1e-4}
	// Park a long job so the duplicates pile up in the queue behind it.
	longID, err := s.Enqueue(shiftCircuit(t, 9),
		core.WithBackend(core.Trajectory), core.WithNoise(model), core.WithShots(20_000))
	if err != nil {
		t.Fatal(err)
	}
	var ids []JobID
	for i := 0; i < 4; i++ {
		id, err := s.Enqueue(ghz(t), core.WithShots(64))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var first core.Result
	for i, id := range ids {
		res, err := s.Await(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
		} else if !res.Counts.Equal(first.Counts) {
			t.Errorf("duplicate %d disagrees with first", i)
		}
	}
	if _, err := s.Await(context.Background(), longID); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if stats.Completed != uint64(len(ids))+1 {
		t.Errorf("completed = %d", stats.Completed)
	}
	// The first duplicate the worker pops simulates; each later one
	// hits the cache when popped (or at Enqueue, if the first already
	// ran). The bound keeps one hit of slack.
	if stats.CacheHits < uint64(len(ids))-2 {
		t.Errorf("cache hits = %d, want >= %d (stats %+v)",
			stats.CacheHits, len(ids)-2, stats)
	}
	// With everything settled the population gauges must be back at
	// zero.
	if stats.Queued != 0 || stats.Running != 0 {
		t.Errorf("gauges after drain: queued=%d running=%d", stats.Queued, stats.Running)
	}
}

func TestBuildCircuitMatrixBudget(t *testing.T) {
	// A circuit of many small ops within the budget builds fine.
	ok := CircuitSpec{Dims: []int{3, 3}}
	for i := 0; i < 100; i++ {
		ok.Ops = append(ok.Ops, OpSpec{Gate: "csum", Targets: []int{0, 1}})
	}
	if _, err := BuildCircuit(ok); err != nil {
		t.Fatal(err)
	}
	// A budget-busting run of maximum-size gates is rejected before
	// allocation, not OOM-killed.
	big := CircuitSpec{Dims: []int{16, 16}}
	for i := 0; i < MaxOps; i++ {
		big.Ops = append(big.Ops, OpSpec{Gate: "csum", Targets: []int{0, 1}})
	}
	if _, err := BuildCircuit(big); err == nil {
		t.Error("gate-matrix budget not enforced")
	}
}

// waitState polls until job id reaches want, failing after 30 s.
func waitState(t *testing.T, s *Service, id JobID, want JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		if st.State.settled() || time.Now().After(deadline) {
			t.Fatalf("job %s is %v, never reached %v", id, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// enqueueLong submits a noisy trajectory job that runs until cancelled
// for any test's purposes.
func enqueueLong(t *testing.T, s *Service, seed int64) JobID {
	t.Helper()
	id, err := s.Enqueue(ghz(t), core.WithBackend(core.Trajectory),
		core.WithNoise(noise.Model{Damping: 1e-3}), core.WithShots(500_000), core.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestQueuedJobsReportQueuedWhileOneRuns: a shard runs one job at a
// time, so the jobs behind the running one report queued, and the
// running gauge counts only the job that executes.
func TestQueuedJobsReportQueuedWhileOneRuns(t *testing.T) {
	s := newTestService(t, Config{Shards: 1, CacheSize: -1})
	blocker := enqueueLong(t, s, 1)
	waitState(t, s, blocker, Running)
	// Three jobs pile up behind the blocker; the first of them is long.
	first := enqueueLong(t, s, 2)
	var behind []JobID
	for k := 0; k < 2; k++ {
		id, err := s.Enqueue(shiftCircuit(t, k), core.WithShots(8))
		if err != nil {
			t.Fatal(err)
		}
		behind = append(behind, id)
	}
	if err := s.CancelJob(blocker); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first, Running)
	// Nothing may start behind a running job; give a wrong worker the
	// time to begin the jobs it would have popped with it.
	time.Sleep(50 * time.Millisecond)
	for _, id := range behind {
		if st, _ := s.Status(id); st.State != Queued {
			t.Errorf("job %s behind the running one is %v, want queued", id, st.State)
		}
	}
	st := s.Stats()
	if st.Running != 1 || st.Queued != 2 || st.InflightShots != 500_000 {
		t.Errorf("gauges while one job runs: running=%d queued=%d inflight_shots=%d, want 1, 2, 500000",
			st.Running, st.Queued, st.InflightShots)
	}
	if err := s.CancelJob(first); err != nil {
		t.Fatal(err)
	}
	for _, id := range behind {
		if _, err := s.Await(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShortJobSettlesBeforeLongJobBehindIt: a job settles when its own
// run ends, not when the job popped after it ends.
func TestShortJobSettlesBeforeLongJobBehindIt(t *testing.T) {
	s := newTestService(t, Config{Shards: 1, CacheSize: -1})
	blocker := enqueueLong(t, s, 1)
	waitState(t, s, blocker, Running)
	short, err := s.Enqueue(shiftCircuit(t, 0), core.WithShots(8))
	if err != nil {
		t.Fatal(err)
	}
	long := enqueueLong(t, s, 2)
	if err := s.CancelJob(blocker); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Await(ctx, short); err != nil {
		t.Fatalf("short job: %v", err)
	}
	if st, _ := s.Status(long); st.State.settled() {
		t.Fatalf("long job is %v when the short job ahead of it settled; want it still queued or running", st.State)
	}
	if err := s.CancelJob(long); err != nil {
		t.Fatal(err)
	}
}
