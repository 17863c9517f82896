package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"quditkit/internal/core"
	"quditkit/internal/journal"
	"quditkit/internal/serve"
)

// fakeClock is a mutex-guarded synthetic clock so tests control
// heartbeat expiry deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testWorker is one in-process quditd worker: a real serve.Service
// behind a real HTTP handler.
type testWorker struct {
	svc *serve.Service
	ts  *httptest.Server
}

// newTestWorker builds a worker over a 2x2 forecast processor with the
// given base seed (fleets must share the seed for byte-identical
// results).
func newTestWorker(t *testing.T, seed int64, cfg serve.Config) *testWorker {
	t.Helper()
	proc, err := core.NewCompactProcessor(2, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := serve.New(proc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewHandler(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return &testWorker{svc: svc, ts: ts}
}

// fleet is a coordinator with registered in-process workers and a
// synthetic clock; the liveness monitor is disabled so tests drive
// CheckWorkers explicitly.
type fleet struct {
	coord   *Coordinator
	ts      *httptest.Server
	clk     *fakeClock
	workers map[string]*testWorker
}

func newFleet(t *testing.T, workerCfg serve.Config, workerIDs ...string) *fleet {
	t.Helper()
	proc, err := core.NewCompactProcessor(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	coord, err := NewCoordinator(CoordinatorConfig{
		Proc:            proc,
		HeartbeatTTL:    5 * time.Second,
		MonitorInterval: -1,
		DrainTimeout:    30 * time.Second,
		now:             clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(coord))
	t.Cleanup(func() {
		ts.Close()
		coord.Close()
	})
	f := &fleet{coord: coord, ts: ts, clk: clk, workers: map[string]*testWorker{}}
	for _, id := range workerIDs {
		w := newTestWorker(t, 1, workerCfg)
		f.workers[id] = w
		f.coord.Register(id, w.ts.URL)
	}
	return f
}

// ownerOf resolves which worker the fleet would route a request body
// to, using the same key derivation the submit handler uses.
func (f *fleet) ownerOf(t *testing.T, body string) string {
	t.Helper()
	var req serve.JobRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	circ, err := serve.BuildCircuit(req.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := req.Options(f.coord.cfg.Proc)
	if err != nil {
		t.Fatal(err)
	}
	key := JobKey(core.Fingerprint(circ), core.OptionsDigest(opts...), core.TranspileKey(opts...))
	f.coord.mu.Lock()
	defer f.coord.mu.Unlock()
	owner, _ := f.coord.ring.Owner(key)
	return owner
}

// bodyOwnedBy searches job seeds until one routes to the wanted
// worker; the search is deterministic for a fixed ring.
func (f *fleet) bodyOwnedBy(t *testing.T, worker string, shots int, fromSeed int64) (string, int64) {
	t.Helper()
	for seed := fromSeed; seed < fromSeed+200; seed++ {
		body := ghzBody(shots, seed)
		if f.ownerOf(t, body) == worker {
			return body, seed
		}
	}
	t.Fatalf("no seed in [%d,%d) routes to %s", fromSeed, fromSeed+200, worker)
	return "", 0
}

// ghzBody is the canonical 3-qutrit GHZ submission with a per-test
// seed; distinct seeds give distinct routing keys.
func ghzBody(shots int, seed int64) string {
	return fmt.Sprintf(`{"circuit":{"dims":[3,3,3],"ops":[`+
		`{"gate":"dft","targets":[0]},`+
		`{"gate":"csum","targets":[0,1]},`+
		`{"gate":"csum","targets":[0,2]}]},`+
		`"backend":"trajectory","noise":{"depol1":0.02},"shots":%d,"seed":%d}`, shots, seed)
}

// postJob submits a body and decodes the coordinator/worker view.
func postJob(t *testing.T, baseURL, body string, wait bool) (JobView, int) {
	t.Helper()
	url := baseURL + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &view); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
	}
	return view, resp.StatusCode
}

// getJob polls one job and decodes the view.
func getJob(t *testing.T, baseURL, id string, wait bool) (JobView, int) {
	t.Helper()
	url := baseURL + "/v1/jobs/" + id
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	return view, resp.StatusCode
}

func TestJobKeyStable(t *testing.T) {
	a := JobKey(1, 2, 3)
	if a != JobKey(1, 2, 3) {
		t.Fatal("JobKey not deterministic")
	}
	for _, other := range []uint64{JobKey(2, 2, 3), JobKey(1, 3, 3), JobKey(1, 2, 4)} {
		if a == other {
			t.Fatal("JobKey ignores one of its inputs")
		}
	}
}

// TestRegisterHeartbeatLifecycle exercises the control plane over
// HTTP: register, heartbeat, unknown-worker 404, and stats rows.
func TestRegisterHeartbeatLifecycle(t *testing.T) {
	f := newFleet(t, serve.Config{})
	resp, err := http.Post(f.ts.URL+"/v1/cluster/register", "application/json",
		strings.NewReader(`{"id":"wx","url":"http://127.0.0.1:1"}`))
	if err != nil {
		t.Fatal(err)
	}
	var ack RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ack.HeartbeatTTLMS != 5000 || ack.IntervalMS <= 0 {
		t.Fatalf("register status %d ack %+v", resp.StatusCode, ack)
	}

	beat := func(id string) int {
		resp, err := http.Post(f.ts.URL+"/v1/cluster/heartbeat", "application/json",
			strings.NewReader(fmt.Sprintf(`{"id":%q}`, id)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := beat("wx"); got != http.StatusOK {
		t.Fatalf("heartbeat = %d", got)
	}
	if got := beat("nobody"); got != http.StatusNotFound {
		t.Fatalf("unknown heartbeat = %d, want 404", got)
	}

	stats := f.coord.Stats()
	if stats.Role != "coordinator" || len(stats.Workers) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if !stats.Workers[0].Alive {
		t.Fatal("fresh worker not alive")
	}

	// Past the TTL without a beat, the worker is reaped.
	f.clk.Advance(6 * time.Second)
	dead := f.coord.CheckWorkers(f.clk.Now())
	if len(dead) != 1 || dead[0] != "wx" {
		t.Fatalf("reaped %v, want [wx]", dead)
	}
	if got := beat("wx"); got != http.StatusNotFound {
		t.Fatalf("reaped worker heartbeat = %d, want 404 (re-register signal)", got)
	}
}

// TestSubmitValidatesAtEdge: a malformed job is rejected by the
// coordinator with the same 4xx surface a standalone quditd gives,
// without touching any worker.
func TestSubmitValidatesAtEdge(t *testing.T) {
	f := newFleet(t, serve.Config{}, "w1")
	before := f.workers["w1"].svc.Stats().Enqueued
	for _, body := range []string{
		`{not json`,
		`{"circuit":{"dims":[99999],"ops":[]}}`,
		`{"circuit":{"dims":[3],"ops":[{"gate":"nope","targets":[0]}]}}`,
		`{"circuit":{"dims":[3],"ops":[]},"shots":-5}`,
	} {
		resp, err := http.Post(f.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if after := f.workers["w1"].svc.Stats().Enqueued; after != before {
		t.Fatalf("invalid submissions reached a worker (enqueued %d -> %d)", before, after)
	}
}

// TestSubmitNoWorkers: an empty fleet is a 503, and the job record is
// not leaked.
func TestSubmitNoWorkers(t *testing.T) {
	f := newFleet(t, serve.Config{})
	view, status := postJob(t, f.ts.URL, ghzBody(16, 1), false)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d view %+v, want 503", status, view)
	}
}

// TestSpillOnBackpressure: when the key owner's queue is full, the job
// spills to the ring successor instead of bouncing with 429, and the
// spill counter records it.
func TestSpillOnBackpressure(t *testing.T) {
	// Tiny queue on every worker: one shard, depth 1.
	cfg := serve.Config{Shards: 1, QueueDepth: 1}
	f := newFleet(t, cfg, "w1", "w2")
	// Slow distinct jobs all owned by w1, precomputed so the submit
	// loop outpaces the drain: the overflow must land on w2, and once
	// both queues are full the coordinator reports backpressure.
	var bodies []string
	seed := int64(1000)
	for i := 0; i < 10; i++ {
		body, s := f.bodyOwnedBy(t, "w1", 81920, seed)
		seed = s + 1
		bodies = append(bodies, body)
	}
	var ids []string
	sawBackpressure := false
	for i, body := range bodies {
		view, status := postJob(t, f.ts.URL, body, false)
		switch status {
		case http.StatusOK, http.StatusAccepted:
			ids = append(ids, view.ID)
		case http.StatusTooManyRequests:
			sawBackpressure = true // every replica full: surfaced to the client
		default:
			t.Fatalf("submit %d: status %d %+v", i, status, view)
		}
	}
	if len(ids) == 0 {
		t.Fatal("no job accepted")
	}
	for _, id := range ids {
		view, _ := getJob(t, f.ts.URL, id, true)
		if view.State != "done" {
			t.Fatalf("job %s settled %q: %s", id, view.State, view.Error)
		}
	}
	if f.coord.Stats().Spills == 0 {
		t.Fatal("no spill recorded though the owner queue was 1 deep")
	}
	if f.workers["w2"].svc.Stats().Enqueued == 0 {
		t.Fatal("spill target never received a job")
	}
	_ = sawBackpressure // not guaranteed on fast machines; spills are
}

// TestSpillPastBrokenJournal: a worker whose journal cannot record an
// admission answers 503, a transient failure, so the coordinator runs
// the job on the next worker on the ring instead of failing it.
func TestSpillPastBrokenJournal(t *testing.T) {
	f := newFleet(t, serve.Config{})
	jl, _, err := journal.Open(t.TempDir(), "jobs")
	if err != nil {
		t.Fatal(err)
	}
	broken := newTestWorker(t, 1, serve.Config{Shards: 1, Journal: jl})
	healthy := newTestWorker(t, 1, serve.Config{Shards: 1})
	f.workers["w1"], f.workers["w2"] = broken, healthy
	f.coord.Register("w1", broken.ts.URL)
	f.coord.Register("w2", healthy.ts.URL)
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	body, _ := f.bodyOwnedBy(t, "w1", 64, 4000)
	view, status := postJob(t, f.ts.URL, body, true)
	if status != http.StatusOK || view.State != "done" {
		t.Fatalf("status %d view %+v, want 200 done", status, view)
	}
	if view.Worker != "w2" {
		t.Fatalf("job ran on %q, want w2", view.Worker)
	}
	if n := healthy.svc.Stats().Enqueued; n != 1 {
		t.Fatalf("healthy worker enqueued %d jobs, want 1", n)
	}
	if n := broken.svc.Stats().Enqueued; n != 0 {
		t.Fatalf("broken worker enqueued %d jobs, want 0", n)
	}
}

// TestCancelThroughCoordinator: cancelling via the coordinator reaches
// the owning worker and the settled record reports cancelled.
func TestCancelThroughCoordinator(t *testing.T) {
	cfg := serve.Config{Shards: 1, QueueDepth: 8}
	f := newFleet(t, cfg, "w1")
	// A job to cancel, stuck in the queue behind a slow blocker (the
	// blocker's shot count keeps the single shard busy long enough for
	// the DELETE to land while the victim is still queued).
	blocker, seed := f.bodyOwnedBy(t, "w1", 524288, 1)
	victim, _ := f.bodyOwnedBy(t, "w1", 256, seed+1)
	bview, _ := postJob(t, f.ts.URL, blocker, false)
	vview, _ := postJob(t, f.ts.URL, victim, false)
	req, _ := http.NewRequest(http.MethodDelete, f.ts.URL+"/v1/jobs/"+vview.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cview JobView
	if err := json.NewDecoder(resp.Body).Decode(&cview); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || cview.State != "cancelled" {
		t.Fatalf("cancel: status %d view %+v", resp.StatusCode, cview)
	}
	// Cancelling a settled job conflicts.
	if view, _ := getJob(t, f.ts.URL, bview.ID, true); view.State != "done" {
		t.Fatalf("blocker settled %q", view.State)
	}
	req, _ = http.NewRequest(http.MethodDelete, f.ts.URL+"/v1/jobs/"+bview.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel settled job: status %d, want 409", resp.StatusCode)
	}
}
