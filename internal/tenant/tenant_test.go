package tenant

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

const twoTenants = `{"tenants": [
	{"name": "acme", "api_key": "k-acme", "weight": 2, "priority": 1,
	 "max_queued_jobs": 2, "max_inflight_shots": 1000, "max_concurrent_sweeps": 1},
	{"name": "bob", "api_key": "k-bob"}
]}`

func TestLoadAndLookup(t *testing.T) {
	r, err := Load([]byte(twoTenants))
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Lookup("k-acme")
	if err != nil || a.Name() != "acme" || a.Weight() != 2 || a.Priority() != 1 {
		t.Fatalf("Lookup(k-acme) = %v, %v", a, err)
	}
	if _, err := r.Lookup("nope"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("unknown key: %v", err)
	}
	// Possession of a registry means auth is required: empty key fails.
	if _, err := r.Lookup(""); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("empty key: %v", err)
	}
	if b := r.Resolve("bob", nil); b == nil || b.Weight() != 1 {
		t.Fatalf("Resolve(bob) = %v (weight defaults to 1)", b)
	}
	// Journal replay falls back to the anonymous account for a name the
	// registry does not hold, an empty name, or no registry at all.
	anon := NewAnonymous()
	var none *Registry
	for _, got := range []*Account{r.Resolve("gone", anon), r.Resolve("", anon), none.Resolve("bob", anon)} {
		if got != anon {
			t.Fatalf("fallback resolved to %v, want the anonymous account", got)
		}
	}
	if got := len(r.Accounts()); got != 2 {
		t.Fatalf("Accounts() len = %d", got)
	}
}

func TestLoadRejectsBadFiles(t *testing.T) {
	for name, data := range map[string]string{
		"not json":       `{nope`,
		"empty":          `{"tenants": []}`,
		"missing name":   `{"tenants": [{"api_key": "k"}]}`,
		"missing key":    `{"tenants": [{"name": "a"}]}`,
		"reserved name":  `{"tenants": [{"name": "anonymous", "api_key": "k"}]}`,
		"negative quota": `{"tenants": [{"name": "a", "api_key": "k", "max_queued_jobs": -1}]}`,
		"dup name":       `{"tenants": [{"name": "a", "api_key": "k1"}, {"name": "a", "api_key": "k2"}]}`,
		"dup key":        `{"tenants": [{"name": "a", "api_key": "k"}, {"name": "b", "api_key": "k"}]}`,
	} {
		if _, err := Load([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(twoTenants), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestJobQuotaLifecycle(t *testing.T) {
	r, err := Load([]byte(twoTenants))
	if err != nil {
		t.Fatal(err)
	}
	a := r.Resolve("acme", nil) // max_queued_jobs=2, max_inflight_shots=1000

	if err := a.TryAdmitJob(400); err != nil {
		t.Fatal(err)
	}
	if err := a.TryAdmitJob(400); err != nil {
		t.Fatal(err)
	}
	// Third queued job breaches max_queued_jobs.
	if err := a.TryAdmitJob(1); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over max_queued_jobs: %v", err)
	}
	// Starting a job frees a queued slot but keeps shots inflight.
	a.JobStarted()
	if err := a.TryAdmitJob(300); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over max_inflight_shots: %v", err)
	}
	if err := a.TryAdmitJob(200); err != nil {
		t.Fatal(err)
	}
	u := a.Snapshot()
	if u.QueuedJobs != 2 || u.RunningJobs != 1 || u.InflightShots != 1000 {
		t.Fatalf("usage %+v", u)
	}
	if u.Enqueued != 3 || u.QuotaRejected != 2 {
		t.Fatalf("counters %+v", u)
	}

	// Settle all three; gauges return to zero, outcomes tally.
	a.JobSettled(true, true, 400, Completed)
	a.JobSettled(false, true, 400, Failed)
	a.JobSettled(false, true, 200, Cancelled)
	u = a.Snapshot()
	if u.QueuedJobs != 0 || u.RunningJobs != 0 || u.InflightShots != 0 {
		t.Fatalf("gauges not released: %+v", u)
	}
	if u.Completed != 1 || u.Failed != 1 || u.Cancelled != 1 {
		t.Fatalf("outcomes %+v", u)
	}
}

func TestCancelAdmissionUnwinds(t *testing.T) {
	a := NewAnonymous()
	if err := a.TryAdmitJob(100); err != nil {
		t.Fatal(err)
	}
	a.CancelAdmission(100)
	u := a.Snapshot()
	if u.QueuedJobs != 0 || u.InflightShots != 0 || u.Enqueued != 0 {
		t.Fatalf("CancelAdmission left %+v", u)
	}
}

func TestSweepQuota(t *testing.T) {
	r, err := Load([]byte(twoTenants))
	if err != nil {
		t.Fatal(err)
	}
	a := r.Resolve("acme", nil) // max_concurrent_sweeps=1
	if err := a.TryAdmitSweep(); err != nil {
		t.Fatal(err)
	}
	if err := a.TryAdmitSweep(); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over max_concurrent_sweeps: %v", err)
	}
	a.SweepDone()
	if err := a.TryAdmitSweep(); err != nil {
		t.Fatalf("slot not released: %v", err)
	}
	a.CancelSweepAdmission()
	if u := a.Snapshot(); u.RunningSweeps != 0 || u.Sweeps != 1 {
		t.Fatalf("sweep accounting %+v", u)
	}
}

func TestForceAdmitBypassesQuota(t *testing.T) {
	r, err := Load([]byte(twoTenants))
	if err != nil {
		t.Fatal(err)
	}
	a := r.Resolve("acme", nil)
	// Fill the quota, then force two more (journal replay must never
	// drop accepted work, even when quotas shrank across a restart).
	for i := 0; i < 2; i++ {
		if err := a.TryAdmitJob(1); err != nil {
			t.Fatal(err)
		}
	}
	a.ForceAdmitJob(5000)
	a.ForceAdmitSweep()
	u := a.Snapshot()
	if u.QueuedJobs != 3 || u.InflightShots != 5002 || u.RunningSweeps != 1 {
		t.Fatalf("force admit %+v", u)
	}
}

func TestAnonymousUnlimited(t *testing.T) {
	a := NewAnonymous()
	if a.Name() != AnonymousName || a.Weight() != 1 || a.Priority() != 0 || a.Key() != "" {
		t.Fatalf("anonymous identity: %+v", a.Config())
	}
	for i := 0; i < 10_000; i++ {
		if err := a.TryAdmitJob(1 << 20); err != nil {
			t.Fatalf("anonymous admit %d: %v", i, err)
		}
	}
	if err := a.TryAdmitSweep(); err != nil {
		t.Fatal(err)
	}
}
