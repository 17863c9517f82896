package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"quditkit/internal/serve"
)

// runJobReq decodes a test body into the in-process submission form.
func runJobReq(t *testing.T, body string) serve.JobRequest {
	t.Helper()
	var req serve.JobRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	return req
}

// TestRunJobInProcess drives the in-process submission path the sweep
// layer uses: RunJob settles done with the worker recorded, matches the
// HTTP path byte for byte, and re-running the same request hits the
// owning worker's cache.
func TestRunJobInProcess(t *testing.T) {
	f := newFleet(t, serve.Config{}, "w1", "w2")
	body := ghzBody(64, 500)

	view, err := f.coord.RunJob(context.Background(), nil, runJobReq(t, body))
	if err != nil {
		t.Fatal(err)
	}
	if view.State != "done" || view.Result == nil || view.Result.Shots != 64 {
		t.Fatalf("RunJob view: %+v", view)
	}

	httpView, _ := postJob(t, f.ts.URL, body, true)
	a, _ := json.Marshal(view.Result)
	b, _ := json.Marshal(httpView.Result)
	if string(a) != string(b) {
		t.Fatalf("RunJob result diverges from HTTP path:\n%s\n%s", a, b)
	}
	if !httpView.Cached {
		t.Fatal("HTTP re-submission after RunJob missed the cache: paths use different keys")
	}

	again, err := f.coord.RunJob(context.Background(), nil, runJobReq(t, body))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("RunJob re-submission missed the cache")
	}
}

// TestRunJobValidation rejects malformed requests at the coordinator
// edge, before any dispatch.
func TestRunJobValidation(t *testing.T) {
	f := newFleet(t, serve.Config{}, "w1")
	bad := runJobReq(t, ghzBody(64, 501))
	bad.Circuit.Ops[0].Gate = "warp"
	if _, err := f.coord.RunJob(context.Background(), nil, bad); err == nil {
		t.Fatal("unknown gate accepted")
	}
	if n := len(f.coord.Stats().Workers); n != 1 {
		t.Fatalf("fleet changed during validation: %d workers", n)
	}
}

// TestRunJobNoWorkers reports ErrNoWorkers on an empty fleet.
func TestRunJobNoWorkers(t *testing.T) {
	f := newFleet(t, serve.Config{})
	_, err := f.coord.RunJob(context.Background(), nil, runJobReq(t, ghzBody(64, 502)))
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("empty-fleet RunJob: %v", err)
	}
}

// TestRunJobCancelReapsRemote cancels an in-flight RunJob wait: the
// context error surfaces immediately and the worker-side job is
// cancelled rather than left simulating for nobody.
func TestRunJobCancelReapsRemote(t *testing.T) {
	// Single shard: a long job parks in the worker queue where
	// cancellation settles it instantly.
	cfg := serve.Config{Shards: 1, QueueDepth: 32}
	f := newFleet(t, cfg, "w1")

	// Wedge the worker with a big uncached job via HTTP, then RunJob a
	// second one that stays queued behind it. The wedge submit is
	// fire-and-forget: only its occupancy matters.
	go func() {
		resp, err := http.Post(f.ts.URL+"/v1/jobs?wait=1", "application/json",
			strings.NewReader(ghzBody(1<<17, 600)))
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := f.coord.RunJob(ctx, nil, runJobReq(t, ghzBody(1<<17, 601)))
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled RunJob returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled RunJob did not return")
	}

	// The worker-side job settles cancelled (best-effort reap), visible
	// through the worker's own stats.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if f.workers["w1"].svc.Stats().Cancelled >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never recorded the reaped job: %+v", f.workers["w1"].svc.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
