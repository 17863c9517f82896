package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"quditkit/internal/circuit"
	"quditkit/internal/core"
	"quditkit/internal/experiment"
	"quditkit/internal/gates"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
	"quditkit/internal/serve"
)

// TestWaitParamAlikeOnEverySurface: jobs, sweeps and the coordinator
// read ?wait by one rule. A bare ?wait, or any value but an explicit
// false, blocks until the work settles; "0" and "false" answer 202 at
// once.
func TestWaitParamAlikeOnEverySurface(t *testing.T) {
	// One worker whose only shard is held by a job that outlasts the
	// test, so everything submitted behind it stays unsettled.
	proc, err := core.NewCompactProcessor(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := serve.New(proc, serve.Config{Shards: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := experiment.NewManager(experiment.ServeRunner{Service: svc}, experiment.Config{})
	if err != nil {
		t.Fatal(err)
	}
	worker := httptest.NewServer(experiment.NewHandler(mgr, serve.NewHandler(svc)))
	hold, err := svc.Enqueue(holdCircuit(t), core.WithBackend(core.Trajectory),
		core.WithNoise(noise.Model{Damping: 1e-3}), core.WithShots(1<<20), core.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = svc.CancelJob(hold)
		mgr.Close()
		worker.Close()
		svc.Close()
	})
	f := newFleet(t, serve.Config{})
	f.coord.Register("w1", worker.URL)

	const jobBody = `{"circuit":{"dims":[3],"ops":[{"gate":"x","targets":[0]}]},"shots":8}`
	const sweepBody = `{"kind":"rb","shots":16,"seed":7,"rb":{"dim":3,"lengths":[1,2],"sequences":1}}`
	surfaces := []struct{ name, url, body string }{
		{"jobs", worker.URL + "/v1/jobs", jobBody},
		{"sweeps", worker.URL + "/v1/sweeps", sweepBody},
		{"coordinator", f.ts.URL + "/v1/jobs", jobBody},
	}
	for _, tc := range []struct {
		query  string
		blocks bool
	}{
		{"?wait", true}, {"?wait=1", true}, {"?wait=true", true}, {"?wait=yes", true},
		{"?wait=0", false}, {"?wait=false", false},
	} {
		for _, sf := range surfaces {
			t.Run(sf.name+tc.query, func(t *testing.T) {
				// A blocking request can only end by the client giving
				// up; an async one answers well inside the long bound.
				timeout := 10 * time.Second
				if tc.blocks {
					timeout = 150 * time.Millisecond
				}
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				defer cancel()
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, sf.url+tc.query, strings.NewReader(sf.body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if tc.blocks {
					if err == nil {
						resp.Body.Close()
						t.Fatalf("answered %d while the work was unsettled; want it to block", resp.StatusCode)
					}
					if !errors.Is(err, context.DeadlineExceeded) {
						t.Fatal(err)
					}
					return
				}
				if err != nil {
					t.Fatalf("async request did not answer: %v", err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("status %d, want 202", resp.StatusCode)
				}
			})
		}
	}
}

// holdCircuit is a deep noisy qutrit circuit: at a million trajectory
// shots on one core it runs far longer than any test that waits on it.
func holdCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := circuit.New(hilbert.Uniform(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		c.MustAppend(gates.DFT(3), i%3)
		c.MustAppend(gates.CSUM(3, 3), i%3, (i+1)%3)
	}
	return c
}
