package experiment

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"quditkit/internal/core"
	"quditkit/internal/httpapi"
	"quditkit/internal/serve"
	"quditkit/internal/tenant"
)

// sweepRegistry: acme may run one sweep at a time, bob is unlimited.
func sweepRegistry(t *testing.T) *tenant.Registry {
	t.Helper()
	reg, err := tenant.Load([]byte(`{"tenants": [
		{"name": "acme", "api_key": "k-acme", "max_concurrent_sweeps": 1},
		{"name": "bob",  "api_key": "k-bob"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// blockingRunner parks every cell until release is closed, keeping
// sweeps running as long as the test needs.
func blockingRunner(release <-chan struct{}) *fakeRunner {
	return &fakeRunner{fn: func(ctx context.Context, req serve.JobRequest) (serve.JobView, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return serve.JobView{}, ctx.Err()
		}
		return doneView(req.Shots, req.Shots-20*len(req.Circuit.Ops), false), nil
	}}
}

// doSweep issues one request against the sweep handler with an
// optional API key.
func doSweep(t *testing.T, method, url, key, body string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

// TestSweepTenantAuthQuotaOwnership drives the tenant lifecycle across
// the sweep HTTP surface: 401 without a key, 429 quota_exceeded with
// Retry-After at max_concurrent_sweeps, foreign sweeps answering 404,
// and the reservation releasing when the sweep settles.
func TestSweepTenantAuthQuotaOwnership(t *testing.T) {
	release := make(chan struct{})
	reg := sweepRegistry(t)
	m := newTestManager(t, blockingRunner(release), Config{Tenants: reg})
	base := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	ts := httptest.NewServer(NewHandler(m, base))
	t.Cleanup(ts.Close)

	// No key: 401 tenant_unknown.
	status, raw, _ := doSweep(t, http.MethodPost, ts.URL+"/v1/sweeps", "", rbBody)
	if status != http.StatusUnauthorized {
		t.Fatalf("no key: %d %s", status, raw)
	}
	if det, ok := httpapi.Decode(raw); !ok || det.Code != httpapi.CodeTenantUnknown {
		t.Fatalf("no-key body %s", raw)
	}

	// First sweep admits and runs (cells parked on the runner).
	status, raw, _ = doSweep(t, http.MethodPost, ts.URL+"/v1/sweeps", "k-acme", rbBody)
	if status != http.StatusAccepted {
		t.Fatalf("first sweep: %d %s", status, raw)
	}
	var view SweepView
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	if view.Tenant != "acme" {
		t.Fatalf("sweep view names tenant %q, want acme", view.Tenant)
	}

	// Second concurrent sweep breaches max_concurrent_sweeps=1.
	status, raw, hdr := doSweep(t, http.MethodPost, ts.URL+"/v1/sweeps", "k-acme", rbBody)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-quota sweep: %d %s", status, raw)
	}
	if got := hdr.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After %q", got)
	}
	if det, ok := httpapi.Decode(raw); !ok || det.Code != httpapi.CodeQuotaExceeded {
		t.Fatalf("over-quota body %s", raw)
	}

	// Another tenant is unaffected by acme's quota, and acme's sweep ID
	// is invisible to it.
	status, raw, _ = doSweep(t, http.MethodPost, ts.URL+"/v1/sweeps", "k-bob", rbBody)
	if status != http.StatusAccepted {
		t.Fatalf("bob's sweep: %d %s", status, raw)
	}
	status, raw, _ = doSweep(t, http.MethodGet, ts.URL+"/v1/sweeps/"+view.ID, "k-bob", "")
	if status != http.StatusNotFound {
		t.Fatalf("foreign status: %d %s", status, raw)
	}
	if status, _, _ := doSweep(t, http.MethodGet, ts.URL+"/v1/sweeps/"+view.ID, "k-acme", ""); status != http.StatusOK {
		t.Fatalf("owner status: %d", status)
	}

	// Release the cells; once acme's sweep settles its slot frees and a
	// new sweep admits.
	close(release)
	deadline := time.Now().Add(time.Minute)
	for {
		status, _, _ = doSweep(t, http.MethodGet, ts.URL+"/v1/sweeps/"+view.ID+"?wait=1", "k-acme", "")
		if status != http.StatusOK {
			t.Fatalf("wait: %d", status)
		}
		acme := reg.Resolve("acme", nil)
		if acme.Snapshot().RunningSweeps == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("acme's sweep slot never released")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status, raw, _ := doSweep(t, http.MethodPost, ts.URL+"/v1/sweeps?wait=1", "k-acme", rbBody); status != http.StatusOK {
		t.Fatalf("post-settle sweep: %d %s", status, raw)
	}
}

// TestSweepMetricsAppended: GET /metrics through the sweep handler
// appends the sweep families to the base handler's serve families.
func TestSweepMetricsAppended(t *testing.T) {
	proc, err := core.NewCompactProcessor(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := serve.New(proc, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	m := newTestManager(t, ServeRunner{Service: svc}, Config{})
	ts := httptest.NewServer(NewHandler(m, serve.NewHandler(svc)))
	t.Cleanup(ts.Close)

	status, raw, hdr := doSweep(t, http.MethodGet, ts.URL+"/metrics", "", "")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE quditd_jobs_enqueued_total counter", // from the serve base
		"# TYPE quditd_sweeps_running gauge",        // appended by the sweep layer
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}
