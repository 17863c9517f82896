package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"quditkit/internal/core"
	"quditkit/internal/httpapi"
	"quditkit/internal/noise"
	"quditkit/internal/tenant"
)

// tenancyRegistry builds the two-tenant registry the HTTP tests use:
// acme is tightly quota'd, bob is unlimited.
func tenancyRegistry(t *testing.T) *tenant.Registry {
	t.Helper()
	reg, err := tenant.Load([]byte(`{"tenants": [
		{"name": "acme", "api_key": "k-acme", "max_inflight_shots": 100},
		{"name": "bob",  "api_key": "k-bob"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// doJSON issues one request with an optional API key and decodes the
// error envelope on non-2xx.
func doJSON(t *testing.T, method, url, key, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := make([]byte, 0, 4096)
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		raw = append(raw, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	return resp, raw
}

func jobBody(shots int, seed int64) string {
	return fmt.Sprintf(`{"circuit":{"dims":[3,3,3],"ops":[{"gate":"dft","targets":[0]},`+
		`{"gate":"csum","targets":[0,1]},{"gate":"csum","targets":[0,2]}]},"shots":%d,"seed":%d}`, shots, seed)
}

// TestHTTPTenantAuth: with a registry, every /v1/jobs route demands a
// registered key; /v1/stats and /metrics stay open (operator surfaces).
func TestHTTPTenantAuth(t *testing.T) {
	s := newTestService(t, Config{Tenants: tenancyRegistry(t)})
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	for _, key := range []string{"", "k-wrong"} {
		resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", key, jobBody(16, 1))
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("key %q: status %d, want 401", key, resp.StatusCode)
		}
		det, ok := httpapi.Decode(raw)
		if !ok || det.Code != httpapi.CodeTenantUnknown {
			t.Fatalf("key %q: body %s", key, raw)
		}
	}
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs?wait=1", "k-bob", jobBody(16, 1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("registered key refused: %d", resp.StatusCode)
	}
	for _, path := range []string{"/v1/stats", "/metrics"} {
		if resp, _ := doJSON(t, http.MethodGet, ts.URL+path, "", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s demanded auth: %d", path, resp.StatusCode)
		}
	}
}

// TestHTTPTenantOwnership: another tenant's job ID answers exactly
// like an unknown one, on every per-job route.
func TestHTTPTenantOwnership(t *testing.T) {
	s := newTestService(t, Config{Tenants: tenancyRegistry(t)})
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs?wait=1", "k-bob", jobBody(16, 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var view JobView
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/" + view.ID},
		{http.MethodGet, "/v1/jobs/" + view.ID + "/events"},
		{http.MethodDelete, "/v1/jobs/" + view.ID},
	} {
		resp, raw := doJSON(t, probe.method, ts.URL+probe.path, "k-acme", "")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s as foreign tenant: %d %s", probe.method, probe.path, resp.StatusCode, raw)
		}
		if det, ok := httpapi.Decode(raw); !ok || det.Code != httpapi.CodeNotFound {
			t.Fatalf("foreign probe body %s", raw)
		}
	}
	// The owner still sees it.
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+view.ID, "k-bob", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner lookup: %d", resp.StatusCode)
	}
}

// TestHTTPQuota429: a submission over the tenant's quota is a 429
// quota_exceeded with a real Retry-After header, and the rejection is
// counted in the tenant's /v1/stats row.
func TestHTTPQuota429(t *testing.T) {
	s := newTestService(t, Config{Tenants: tenancyRegistry(t)})
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	// acme's max_inflight_shots is 100; a 500-shot job can never fit.
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "k-acme", jobBody(500, 3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d %s, want 429", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After %q, want \"2\"", got)
	}
	det, ok := httpapi.Decode(raw)
	if !ok || det.Code != httpapi.CodeQuotaExceeded || det.RetryAfterMS != 2000 {
		t.Fatalf("envelope %+v (%s)", det, raw)
	}
	if !strings.Contains(det.Message, "max_inflight_shots") {
		t.Fatalf("message does not name the violated limit: %q", det.Message)
	}

	var st Stats
	_, raw = doJSON(t, http.MethodGet, ts.URL+"/v1/stats", "", "")
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, u := range st.Tenants {
		if u.Name == "acme" {
			found = true
			if u.QuotaRejected != 1 || u.Enqueued != 0 {
				t.Fatalf("acme usage %+v", u)
			}
		}
	}
	if !found {
		t.Fatalf("no acme row in stats tenants: %+v", st.Tenants)
	}
}

// TestQueueFullErrorNamesShard: the backpressure error carries the
// rejecting shard and its depth (the hot-shard diagnostic).
func TestQueueFullErrorNamesShard(t *testing.T) {
	reg := schedRegistry(t)
	q := newShardQueue(3, 2)
	q.push(qJob(mustAccount(t, reg, "light"), 0))
	q.push(qJob(mustAccount(t, reg, "light"), 1))
	err := queueFullError(q)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("not ErrQueueFull: %v", err)
	}
	if !strings.Contains(err.Error(), "shard 3 at depth 2/2") {
		t.Fatalf("error %q lacks shard+depth", err)
	}
}

// TestMetricsEndpointPerTenant: /metrics renders the Prometheus
// exposition with per-shard queue depth and per-tenant series.
func TestMetricsEndpointPerTenant(t *testing.T) {
	s := newTestService(t, Config{Shards: 2, Tenants: tenancyRegistry(t)})
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs?wait=1", "k-bob", jobBody(16, 4)); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/metrics", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE quditd_jobs_enqueued_total counter",
		"quditd_jobs_enqueued_total 1",
		`quditd_queue_depth{shard="0"}`,
		`quditd_queue_depth{shard="1"}`,
		`quditd_tenant_jobs_completed_total{tenant="bob"} 1`,
		`quditd_tenant_jobs_enqueued_total{tenant="acme"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// queuedAt counts the jobs of one priority class waiting in a shard
// queue.
func queuedAt(q *shardQueue, priority int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, c := range q.classes {
		if c.priority == priority {
			return c.count
		}
	}
	return 0
}

// TestPriorityNeverPreemptsRunning is fairness criterion (b) at the
// service level: a running low-priority job keeps running to
// completion when a high-priority job arrives; only queued jobs are
// reordered behind the new arrival.
func TestPriorityNeverPreemptsRunning(t *testing.T) {
	reg := schedRegistry(t) // light: priority 0; vip: priority 10
	light, vip := mustAccount(t, reg, "light"), mustAccount(t, reg, "vip")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// The scenario needs the slow job still running, and low-priority
	// work still queued, when the vip job arrives. A host too slow for
	// that gets a fresh service and another try.
	const attempts = 5
	for attempt := 1; attempt <= attempts; attempt++ {
		s := newTestService(t, Config{Shards: 1, CacheSize: -1, Tenants: reg})
		// A slow low-priority job occupies the single worker...
		running, err := s.EnqueueAs(light, ghz(t), core.WithShots(1<<16), core.WithSeed(7),
			core.WithBackend(core.Trajectory))
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.job(running)
		if err != nil {
			t.Fatal(err)
		}
		for evs, wake := j.eventsSince(0); len(evs) == 0; evs, wake = j.eventsSince(0) {
			select {
			case <-wake:
			case <-ctx.Done():
				t.Fatal("the slow job never started")
			}
		}
		// ...while more low-priority work queues behind it...
		var queued []JobID
		for i := 0; i < 6; i++ {
			id, err := s.EnqueueAs(light, shiftCircuit(t, i), core.WithShots(1<<14), core.WithSeed(int64(100+i)))
			if err != nil {
				t.Fatal(err)
			}
			queued = append(queued, id)
		}
		// ...and then a high-priority job arrives. The low-priority
		// jobs still in the queue now must all start after it.
		vipID, err := s.EnqueueAs(vip, ghz(t), core.WithShots(64), core.WithSeed(8))
		if err != nil {
			t.Fatal(err)
		}
		behind := queuedAt(s.shards[0], 0)
		st, err := s.Status(running)
		if err != nil {
			t.Fatal(err)
		}

		// The job that was running was never cancelled or requeued: it
		// settles Done with its result intact.
		view, err := s.AwaitView(ctx, running)
		if err != nil {
			t.Fatal(err)
		}
		if view.State != Done.String() || view.Error != "" {
			t.Fatalf("running job disturbed by preemption: %+v", view)
		}
		for _, id := range append(queued, vipID) {
			if _, err := s.Await(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
		if st.State != Running || behind == 0 {
			t.Logf("attempt %d: the vip job arrived with the slow job %v and %d jobs queued",
				attempt, st.State, behind)
			continue
		}

		// One shard settles its jobs one at a time, in the order its
		// retention list records them. Under FIFO the vip job would
		// settle last.
		s.mu.Lock()
		order := append([]JobID(nil), s.settled...)
		s.mu.Unlock()
		if len(order) != 8 || order[0] != running {
			t.Fatalf("settle order %v: want the running job %s first of 8", order, running)
		}
		after := -1
		for i, id := range order {
			if id == vipID {
				after = len(order) - 1 - i
			}
		}
		if after < behind {
			t.Fatalf("vip job settled before %d low-priority jobs, but %d were queued behind it (order %v)",
				after, behind, order)
		}
		return
	}
	t.Fatalf("in %d attempts the vip job never arrived while the slow job ran and low-priority jobs queued", attempts)
}

// TestJournalReplayRestoresTenantAccounting: admit records carry the
// tenant name, and replay re-admits each job against its tenant's
// account (quota-bypassing — accepted work is never dropped). A name
// missing from the current registry falls back to anonymous rather
// than losing the job.
func TestJournalReplayRestoresTenantAccounting(t *testing.T) {
	dir := t.TempDir()
	jl, _ := openJournal(t, dir)
	for i, owner := range []string{"bob", "ghost"} {
		rec, err := json.Marshal(jobAdmitRecord{
			ID:      fmt.Sprintf("j-%06d", i+1),
			Tenant:  owner,
			Payload: wirePayload(i+1, 32),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := jl.Append(recJobAdmit, rec); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	jl2, rec := openJournal(t, dir)
	s := newTestService(t, Config{Journal: jl2, Shards: 1, Tenants: tenancyRegistry(t)})
	if n, err := s.Replay(rec); err != nil || n != 2 {
		t.Fatalf("Replay = %d, %v", n, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, id := range []JobID{"j-000001", "j-000002"} {
		if _, err := s.Await(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	bob := s.cfg.Tenants.Resolve("bob", nil)
	if u := bob.Snapshot(); u.Enqueued != 1 || u.Completed != 1 || u.QueuedJobs != 0 || u.InflightShots != 0 {
		t.Fatalf("bob's accounting not restored by replay: %+v", u)
	}
	// "ghost" is not in the registry: its job ran under anonymous.
	if u := s.anon.Snapshot(); u.Enqueued != 1 || u.Completed != 1 {
		t.Fatalf("unknown-tenant record not absorbed by anonymous: %+v", u)
	}
}

// TestMixedTenantByteIdentical is fairness criterion (c) at the
// service level: scheduling order changes who waits, never what is
// computed. Every job's result under mixed-tenant load is byte-
// identical to the same submission on an undisturbed single-tenant
// service, because seeds are content-addressed.
func TestMixedTenantByteIdentical(t *testing.T) {
	const n = 6
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Baseline: a single-tenant service, one job at a time.
	baseline := make([][]byte, n)
	base := newTestService(t, Config{CacheSize: -1})
	for i := 0; i < n; i++ {
		id, err := base.Enqueue(shiftCircuit(t, i), core.WithShots(512), core.WithSeed(int64(1000+i)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := base.Await(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i], err = json.Marshal(NewResultView(res))
		if err != nil {
			t.Fatal(err)
		}
	}

	// Mixed-tenant: the same submissions split across two unequal-
	// weight tenants, interleaved with a saturating burst from a third
	// account.
	reg, err := tenant.Load([]byte(`{"tenants": [
		{"name": "acme", "api_key": "k-a", "weight": 2},
		{"name": "bob",  "api_key": "k-b"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	acme := reg.Resolve("acme", nil)
	bob := reg.Resolve("bob", nil)
	bully := tenant.NewAnonymous()
	s := newTestService(t, Config{Shards: 2, CacheSize: -1, Tenants: reg})
	var load []JobID
	for i := 0; i < 20; i++ {
		id, err := s.EnqueueAs(bully, ghz(t), core.WithShots(256), core.WithSeed(int64(5000+i)))
		if err != nil {
			t.Fatal(err)
		}
		load = append(load, id)
	}
	ids := make([]JobID, n)
	for i := 0; i < n; i++ {
		owner := acme
		if i%2 == 1 {
			owner = bob
		}
		id, err := s.EnqueueAs(owner, shiftCircuit(t, i), core.WithShots(512), core.WithSeed(int64(1000+i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		res, err := s.Await(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(NewResultView(res))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(baseline[i]) {
			t.Fatalf("job %d diverged under mixed-tenant load:\n%s\n%s", i, got, baseline[i])
		}
	}
	for _, id := range load {
		if _, err := s.Await(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMixedTenantTrajectoryWidthsByteIdentical extends fairness
// criterion (c) to noisy trajectory jobs run at mixed pool widths: a
// saturated weighted-DRR service running the jobs at 1 and 4 workers
// returns results byte-identical to an undisturbed single-tenant
// service running the same submissions at its default width. Width
// changes throughput only — not results (the engine's byte-identity
// contract) and not scheduling identity (WithWorkers is excluded from
// OptionsDigest, and the DRR queue charges every job one slot).
func TestMixedTenantTrajectoryWidthsByteIdentical(t *testing.T) {
	const n = 6
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	model := noise.Model{Depol1: 0.01, Dephasing: 0.005}
	jobOpts := func(i int) []core.RunOption {
		return []core.RunOption{
			core.WithBackend(core.Trajectory),
			core.WithNoise(model),
			core.WithShots(512),
			core.WithSeed(int64(3000 + i)),
		}
	}

	baseline := make([][]byte, n)
	base := newTestService(t, Config{CacheSize: -1})
	for i := 0; i < n; i++ {
		id, err := base.Enqueue(ghz(t), jobOpts(i)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := base.Await(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i], err = json.Marshal(NewResultView(res))
		if err != nil {
			t.Fatal(err)
		}
	}

	reg, err := tenant.Load([]byte(`{"tenants": [
		{"name": "acme", "api_key": "k-a", "weight": 2},
		{"name": "bob",  "api_key": "k-b"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	acme := reg.Resolve("acme", nil)
	bob := reg.Resolve("bob", nil)
	bully := tenant.NewAnonymous()
	s := newTestService(t, Config{Shards: 2, CacheSize: -1, Tenants: reg})
	var load []JobID
	for i := 0; i < 20; i++ {
		id, err := s.EnqueueAs(bully, ghz(t),
			core.WithBackend(core.Trajectory), core.WithNoise(model),
			core.WithShots(256), core.WithSeed(int64(7000+i)))
		if err != nil {
			t.Fatal(err)
		}
		load = append(load, id)
	}
	ids := make([]JobID, n)
	for i := 0; i < n; i++ {
		owner := acme
		if i%2 == 1 {
			owner = bob
		}
		opts := append(jobOpts(i), core.WithWorkers(1+i%2*3))
		id, err := s.EnqueueAs(owner, ghz(t), opts...)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		res, err := s.Await(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(NewResultView(res))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(baseline[i]) {
			t.Fatalf("job %d at %d workers diverged from the baseline:\n%s\n%s", i, 1+i%2*3, got, baseline[i])
		}
	}
	for _, id := range load {
		if _, err := s.Await(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	// Fairness accounting is undisturbed by mixed widths: every weighted
	// tenant's jobs completed and nothing was rejected or failed.
	for _, acct := range []*tenant.Account{acme, bob} {
		u := acct.Snapshot()
		if u.Completed != n/2 || u.Failed != 0 || u.QuotaRejected != 0 {
			t.Fatalf("%s accounting under mixed-width load: %+v", acct.Name(), u)
		}
	}
}
