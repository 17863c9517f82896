package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"quditkit/internal/httpapi"
	"quditkit/internal/serve"
	"quditkit/internal/sse"
)

// TestFleetMatchesStandalone is the scale-out determinism contract: a
// 1-coordinator/2-worker fleet returns byte-identical counts to a
// standalone node for the same submissions, regardless of which worker
// executed each job.
func TestFleetMatchesStandalone(t *testing.T) {
	standalone := newTestWorker(t, 1, serve.Config{})
	f := newFleet(t, serve.Config{}, "w1", "w2")

	seen := map[string]bool{}
	for seed := int64(100); seed < 140; seed++ {
		body := ghzBody(64, seed)
		owner := f.ownerOf(t, body)
		if seen[owner] && len(seen) == 2 {
			continue // both workers already exercised; keep runtime down
		}
		seen[owner] = true

		sview, sstatus := postJob(t, standalone.ts.URL, body, true)
		fview, fstatus := postJob(t, f.ts.URL, body, true)
		if sstatus != http.StatusOK || sview.State != "done" {
			t.Fatalf("standalone seed %d: status %d state %q err %q", seed, sstatus, sview.State, sview.Error)
		}
		if fstatus != http.StatusOK || fview.State != "done" {
			t.Fatalf("fleet seed %d: status %d state %q err %q", seed, fstatus, fview.State, fview.Error)
		}
		if fview.Worker != owner {
			t.Fatalf("seed %d routed to %q, ring owner is %q", seed, fview.Worker, owner)
		}
		sc, _ := json.Marshal(sview.Result.Counts)
		fc, _ := json.Marshal(fview.Result.Counts)
		if string(sc) != string(fc) {
			t.Fatalf("seed %d: fleet counts %s != standalone counts %s (worker %s)", seed, fc, sc, fview.Worker)
		}
		if !reflect.DeepEqual(sview.Result, fview.Result) {
			t.Fatalf("seed %d: result views diverge beyond counts", seed)
		}
	}
	if len(seen) != 2 {
		t.Fatalf("40 seeds exercised only workers %v; ring distribution broken", seen)
	}
	// Identical re-submission settles from the owning worker's cache.
	body := ghzBody(64, 100)
	again, _ := postJob(t, f.ts.URL, body, true)
	if !again.Cached {
		t.Fatal("identical re-submission through the fleet did not hit the result cache")
	}
}

// TestWorkerLossRequeueAndCacheIdempotency kills a worker mid-queue
// and checks the full recovery story:
//
//   - unsettled jobs on the dead worker are requeued and complete on
//     the survivor,
//   - jobs already settled are never re-dispatched (no double
//     execution),
//   - re-submission after the kill settles from cache without
//     re-simulation.
func TestWorkerLossRequeueAndCacheIdempotency(t *testing.T) {
	// One shard, modest queue: jobs on the doomed worker
	// stay queued long enough to be killed mid-queue.
	cfg := serve.Config{Shards: 1, QueueDepth: 32}
	f := newFleet(t, cfg, "w1", "w2")
	survivor, doomed := f.workers["w1"], f.workers["w2"]

	// A job owned by the survivor, settled up front: its result sits in
	// w1's cache.
	survivorBody, seed := f.bodyOwnedBy(t, "w1", 256, 2000)
	sview, _ := postJob(t, f.ts.URL, survivorBody, true)
	if sview.State != "done" || sview.Worker != "w1" {
		t.Fatalf("survivor job: %+v", sview)
	}

	// A job owned by the doomed worker, settled before the kill.
	doomedDoneBody, seed2 := f.bodyOwnedBy(t, "w2", 256, seed+1)
	dview, _ := postJob(t, f.ts.URL, doomedDoneBody, true)
	if dview.State != "done" || dview.Worker != "w2" {
		t.Fatalf("doomed-done job: %+v", dview)
	}

	// Several slow jobs owned by the doomed worker, still queued when
	// it dies.
	var pendingIDs []string
	var pendingBodies []string
	next := seed2 + 1
	for i := 0; i < 3; i++ {
		body, s := f.bodyOwnedBy(t, "w2", 4096, next)
		next = s + 1
		view, status := postJob(t, f.ts.URL, body, false)
		if status != http.StatusAccepted && status != http.StatusOK {
			t.Fatalf("pending submit %d: %d %+v", i, status, view)
		}
		pendingIDs = append(pendingIDs, view.ID)
		pendingBodies = append(pendingBodies, body)
	}

	survivorEnqueuedBefore := survivor.svc.Stats().Enqueued

	// Kill w2 and let the liveness check reap it. The survivor keeps
	// heartbeating, so only w2 crosses the TTL.
	doomed.ts.Close()
	f.clk.Advance(6 * time.Second)
	f.coord.Heartbeat("w1")
	dead := f.coord.CheckWorkers(f.clk.Now())
	if len(dead) != 1 || dead[0] != "w2" {
		t.Fatalf("reaped %v, want [w2]", dead)
	}

	// Every pending job completes on the survivor, marked requeued.
	for _, id := range pendingIDs {
		view, _ := getJob(t, f.ts.URL, id, true)
		if view.State != "done" {
			t.Fatalf("requeued job %s settled %q: %s", id, view.State, view.Error)
		}
		if view.Requeues == 0 {
			t.Fatalf("job %s completed without a recorded requeue: %+v", id, view)
		}
	}

	// The settled jobs were NOT re-dispatched: the survivor received
	// exactly the pending jobs, nothing else.
	gotNew := survivor.svc.Stats().Enqueued - survivorEnqueuedBefore
	if gotNew != uint64(len(pendingIDs)) {
		t.Fatalf("survivor received %d new jobs, want %d (settled jobs must not re-dispatch)",
			gotNew, len(pendingIDs))
	}
	if dv, _ := getJob(t, f.ts.URL, dview.ID, false); dv.State != "done" || dv.Requeues != 0 {
		t.Fatalf("job settled before the kill was disturbed: %+v", dv)
	}

	// Re-submission after the kill settles from cache without
	// re-simulation: both for a key that always lived on the survivor
	// and for a requeued key now re-homed to it.
	enqBefore := survivor.svc.Stats()
	regot, _ := postJob(t, f.ts.URL, survivorBody, true)
	if regot.State != "done" || !regot.Cached {
		t.Fatalf("survivor-key re-submission not served from cache: %+v", regot)
	}
	requeuedAgain, _ := postJob(t, f.ts.URL, pendingBodies[0], true)
	if requeuedAgain.State != "done" || !requeuedAgain.Cached {
		t.Fatalf("requeued-key re-submission not served from cache: %+v", requeuedAgain)
	}
	enqAfter := survivor.svc.Stats()
	if enqAfter.CacheHits < enqBefore.CacheHits+2 {
		t.Fatalf("cache hits %d -> %d; expected both re-submissions to hit",
			enqBefore.CacheHits, enqAfter.CacheHits)
	}
}

// readSSE parses an SSE stream to completion.
func readSSE(r io.Reader) []sse.Frame {
	var frames []sse.Frame
	sse.Read(r, func(f sse.Frame) bool {
		frames = append(frames, f)
		return false
	})
	return frames
}

// TestEventStreamEndToEnd drives the SSE surface on both topologies: a
// worker's own stream and the coordinator relay carry the same
// transitions and end with a terminal event bearing the result.
func TestEventStreamEndToEnd(t *testing.T) {
	f := newFleet(t, serve.Config{}, "w1")
	view, _ := postJob(t, f.ts.URL, ghzBody(64, 42), false)

	resp, err := http.Get(f.ts.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	events := readSSE(resp.Body)
	if len(events) < 2 {
		t.Fatalf("stream carried %d events: %+v", len(events), events)
	}
	var states []string
	var last serve.Event
	for _, e := range events {
		if err := json.Unmarshal(e.Data, &last); err != nil {
			t.Fatalf("bad event data %q: %v", e.Data, err)
		}
		states = append(states, last.State)
	}
	if states[0] != "queued" || states[len(states)-1] != "done" {
		t.Fatalf("transition order %v", states)
	}
	if last.Result == nil || last.Result.Shots != 64 {
		t.Fatalf("terminal event lacks result: %+v", last)
	}

	// A late subscriber on a settled job gets the synthesized terminal
	// event immediately.
	resp2, err := http.Get(f.ts.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	late := readSSE(resp2.Body)
	if len(late) != 1 {
		t.Fatalf("late subscription got %d events: %+v", len(late), late)
	}
	var lateEv serve.Event
	if err := json.Unmarshal(late[0].Data, &lateEv); err != nil || lateEv.State != "done" || lateEv.Result == nil {
		t.Fatalf("late terminal event %q err %v", late[0].Data, err)
	}
}

// watchedWorker registers one worker whose handler reports the query of
// every event-stream request it receives on the returned channel.
func watchedWorker(t *testing.T, f *fleet, id string) (*testWorker, <-chan string) {
	t.Helper()
	w := newTestWorker(t, 1, serve.Config{})
	queries := make(chan string, 16)
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			queries <- r.URL.RawQuery
		}
		w.ts.Config.Handler.ServeHTTP(rw, r)
	}))
	t.Cleanup(ts.Close)
	f.coord.Register(id, ts.URL)
	return w, queries
}

// remoteID returns the ID the owning worker knows a coordinator job by.
func remoteID(t *testing.T, f *fleet, id string) string {
	t.Helper()
	rec, err := f.coord.record(id)
	if err != nil {
		t.Fatal(err)
	}
	_, remote, _, _ := rec.snapshot()
	return remote
}

// TestRelayResumes: a client that reconnects through the coordinator
// mid-job, with Last-Event-ID: 1 or with ?after=1, receives only the
// events after seq 1, byte for byte as the worker sends them.
func TestRelayResumes(t *testing.T) {
	f := newFleet(t, serve.Config{})
	w, queries := watchedWorker(t, f, "w1")
	view, status := postJob(t, f.ts.URL, ghzBody(serve.MaxShots, 42), false)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d %+v", status, view)
	}
	url := f.ts.URL + "/v1/jobs/" + view.ID + "/events"
	nextQuery := func() string {
		select {
		case q := <-queries:
			return q
		case <-time.After(time.Minute):
			t.Fatal("the worker got no event-stream request")
			return ""
		}
	}

	// Watch until the job runs, then drop the connection.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	sse.Read(resp.Body, func(f sse.Frame) bool {
		seen++
		return f.ID == "1"
	})
	resp.Body.Close()
	if seen != 2 {
		t.Fatalf("first connection read %d frames before seq 1", seen)
	}
	if q := nextQuery(); q != "" {
		t.Fatalf("a fresh watch asked the worker for %q", q)
	}

	// Reconnect both ways while the job still runs.
	type result struct {
		body []byte
		err  error
	}
	bodies := make(chan result, 2)
	for _, resume := range []func(*http.Request){
		func(r *http.Request) { r.Header.Set("Last-Event-ID", "1") },
		func(r *http.Request) { r.URL.RawQuery = "after=1" },
	} {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resume(req)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				bodies <- result{err: err}
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			bodies <- result{body, err}
		}()
	}
	for i := 0; i < 2; i++ {
		if q := nextQuery(); q != "after=1" {
			t.Fatalf("a resumed watch asked the worker for %q, want after=1", q)
		}
	}
	cancel, err := http.NewRequest(http.MethodDelete, f.ts.URL+"/v1/jobs/"+view.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp, err := http.DefaultClient.Do(cancel)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", cresp.StatusCode)
	}

	// The worker's own answer to the same resume point.
	direct, err := http.Get(w.ts.URL + "/v1/jobs/" + remoteID(t, f, view.ID) + "/events?after=1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(direct.Body)
	direct.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(want), "id: 2\n") || strings.Count(string(want), "id: ") != 1 {
		t.Fatalf("worker resumed after seq 1 with %q", want)
	}
	for i := 0; i < 2; i++ {
		var got result
		select {
		case got = <-bodies:
		case <-time.After(time.Minute):
			t.Fatal("a resumed watch did not end after the job settled")
		}
		if got.err != nil {
			t.Fatal(got.err)
		}
		if string(got.body) != string(want) {
			t.Fatalf("resumed relay sent\n%s\nthe worker sends\n%s", got.body, want)
		}
	}
}

// TestEventsRejectBadAfter: a non-integer ?after= answers 400
// invalid_request, and the coordinator answers it before any worker
// round trip.
func TestEventsRejectBadAfter(t *testing.T) {
	f := newFleet(t, serve.Config{})
	w, queries := watchedWorker(t, f, "w1")
	view, _ := postJob(t, f.ts.URL, ghzBody(64, 42), true)
	for _, url := range []string{
		f.ts.URL + "/v1/jobs/" + view.ID + "/events?after=x",
		w.ts.URL + "/v1/jobs/" + remoteID(t, f, view.ID) + "/events?after=x",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		det, ok := httpapi.Decode(raw)
		if resp.StatusCode != http.StatusBadRequest || !ok || det.Code != httpapi.CodeInvalidRequest {
			t.Fatalf("%s: status %d body %s", url, resp.StatusCode, raw)
		}
	}
	select {
	case q := <-queries:
		t.Fatalf("the coordinator asked the worker for %q", q)
	default:
	}
}

// TestDrainCollectsResults deregisters a worker with jobs still
// queued: the coordinator must collect every result before releasing
// the worker, and the views must survive the worker's exit.
func TestDrainCollectsResults(t *testing.T) {
	cfg := serve.Config{Shards: 1, QueueDepth: 32}
	f := newFleet(t, cfg, "w1", "w2")

	var ids []string
	next := int64(3000)
	for i := 0; i < 4; i++ {
		body, s := f.bodyOwnedBy(t, "w1", 1024, next)
		next = s + 1
		view, _ := postJob(t, f.ts.URL, body, false)
		ids = append(ids, view.ID)
	}

	resp, err := http.Post(f.ts.URL+"/v1/cluster/deregister", "application/json",
		strings.NewReader(`{"id":"w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	var ack DeregisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister status %d", resp.StatusCode)
	}
	if ack.Collected+ack.Requeued < 4 {
		t.Fatalf("drain accounted for %d+%d jobs, want 4", ack.Collected, ack.Requeued)
	}

	// The worker is gone from the fleet — and may now exit.
	f.workers["w1"].ts.Close()
	for _, id := range ids {
		view, status := getJob(t, f.ts.URL, id, true)
		if status != http.StatusOK || view.State != "done" {
			t.Fatalf("post-drain job %s: status %d state %q err %q", id, status, view.State, view.Error)
		}
	}
	if got := len(f.coord.Stats().Workers); got != 1 {
		t.Fatalf("fleet still lists %d workers after drain", got)
	}
}

// TestAgentLifecycle runs a real Agent against the coordinator: it
// registers, stays alive via heartbeats, and drains on Close.
func TestAgentLifecycle(t *testing.T) {
	f := newFleet(t, serve.Config{})
	w := newTestWorker(t, 1, serve.Config{})
	agent, err := StartAgent(AgentConfig{
		CoordinatorURL: f.ts.URL,
		ID:             "agent-w",
		AdvertiseURL:   w.ts.URL,
		Interval:       50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := f.coord.Stats()
	if len(stats.Workers) != 1 || stats.Workers[0].ID != "agent-w" || !stats.Workers[0].Alive {
		t.Fatalf("agent not registered: %+v", stats.Workers)
	}
	// Jobs flow through the agent-registered worker.
	view, _ := postJob(t, f.ts.URL, ghzBody(32, 7), true)
	if view.State != "done" || view.Worker != "agent-w" {
		t.Fatalf("job via agent worker: %+v", view)
	}
	// Heartbeats keep arriving (wall-clock beats move lastBeat even as
	// the fake clock stands still).
	time.Sleep(150 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := agent.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(f.coord.Stats().Workers); got != 0 {
		t.Fatalf("worker still registered after drain: %d", got)
	}
}
