package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"quditkit/internal/core"
	"quditkit/internal/golden"
	"quditkit/internal/noise"
)

// streamBodies reads a settled job's event stream three ways — from
// the start, resumed with Last-Event-ID: 0, and resumed with ?after=1
// — and joins the bodies, each under a line naming the request.
func streamBodies(t *testing.T, url string) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, c := range []struct{ name, query, lastID string }{
		{"from the start", "", ""},
		{"Last-Event-ID: 0", "", "0"},
		{"?after=1", "?after=1", ""},
	} {
		req, err := http.NewRequest(http.MethodGet, url+c.query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.lastID != "" {
			req.Header.Set("Last-Event-ID", c.lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d, %v", url, c.name, resp.StatusCode, err)
		}
		fmt.Fprintf(&out, "== %s\n%s", c.name, body)
	}
	return out.Bytes()
}

// TestEventStreamGolden pins the bytes of GET /v1/jobs/{id}/events
// for a computed job, a cache hit, a failed job and a job cancelled
// while queued, each from the start and resumed both ways. Clients
// parse these frames (quditc, examples/sweep, the benchmark's SSE
// reader), so a moved byte is a wire change.
func TestEventStreamGolden(t *testing.T) {
	s := newTestService(t, Config{})
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	ctx := context.Background()

	settle := func(id JobID) {
		t.Helper()
		if _, err := s.AwaitView(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, id JobID) {
		t.Helper()
		got := streamBodies(t, ts.URL+"/v1/jobs/"+string(id)+"/events")
		golden.Check(t, filepath.Join("testdata", "events", name+".txt"), got)
	}

	computed, err := s.Enqueue(ghz(t), core.WithShots(16), core.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	settle(computed)
	check("computed", computed)

	hit, err := s.Enqueue(ghz(t), core.WithShots(16), core.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	settle(hit)
	check("cache_hit", hit)

	// The statevector backend rejects a noise model.
	failed, err := s.Enqueue(ghz(t), core.WithNoise(noise.Model{Damping: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	settle(failed)
	check("failed", failed)

	// One shard held by a long job keeps the next one queued until it
	// is cancelled.
	one := newTestService(t, Config{Shards: 1, CacheSize: -1})
	ts1 := httptest.NewServer(NewHandler(one))
	defer ts1.Close()
	long, err := one.Enqueue(ghz(t), core.WithBackend(core.Trajectory),
		core.WithNoise(noise.Model{Damping: 1e-3, Dephasing: 1e-3}), core.WithShots(500_000))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := one.Enqueue(shiftCircuit(t, 0), core.WithShots(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := one.CancelJob(queued); err != nil {
		t.Fatal(err)
	}
	if err := one.CancelJob(long); err != nil {
		t.Fatal(err)
	}
	got := streamBodies(t, ts1.URL+"/v1/jobs/"+string(queued)+"/events")
	golden.Check(t, filepath.Join("testdata", "events", "cancelled_queued.txt"), got)
}
