// Package tenant provides the multi-tenant admission layer of
// quditkit: an API-key registry with per-tenant quotas and the
// runtime accounting (gauges + counters) that the serve, experiment,
// and cluster layers consult before accepting work.
//
// A Registry is loaded once at daemon startup from a JSON file (the
// quditd -tenants flag) and is immutable afterwards; every tenant in
// it owns one Account, the mutable accounting record shared by all
// layers of one process. Admission methods (TryAdmitJob,
// TryAdmitSweep) reserve capacity against the tenant's quotas and
// fail with ErrQuotaExceeded when a limit would be exceeded; release
// happens as jobs start, settle, and sweeps finish. Reservation is
// serialized per account, so concurrent admits can never overshoot a
// quota — releases only ever free capacity.
//
// A process without a registry still accounts: NewAnonymous creates
// a standalone unlimited Account ("anonymous") that the serve and
// experiment layers fall back to, so scheduling and stats code never
// special-cases the single-tenant deployment.
package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// Registry errors distinguishable by callers.
var (
	// ErrUnknownKey is returned by Lookup for an API key the registry
	// does not contain — the HTTP layers map it to 401 tenant_unknown.
	ErrUnknownKey = errors.New("tenant: unknown API key")
	// ErrQuotaExceeded is returned by the TryAdmit methods when the
	// tenant's reservation would exceed a configured quota — the HTTP
	// layers map it to 429 quota_exceeded with a Retry-After header.
	ErrQuotaExceeded = errors.New("tenant: quota exceeded")
)

// AnonymousName is the tenant name of the fallback Account used when
// no registry is configured (and for journal replay of records that
// predate tenancy).
const AnonymousName = "anonymous"

// Tenant is one tenant's static configuration as declared in the
// -tenants JSON file. A zero quota means unlimited; Weight defaults
// to 1 and Priority to 0 (see the field docs).
type Tenant struct {
	// Name identifies the tenant in stats, metrics labels, and journal
	// records. Required, unique within a registry.
	Name string `json:"name"`
	// APIKey is the shared secret presented in the X-API-Key header.
	// Required, unique within a registry.
	APIKey string `json:"api_key"`
	// MaxQueuedJobs bounds how many of the tenant's jobs may sit in
	// the queues (admitted but not yet running) at once. 0 = unlimited.
	MaxQueuedJobs int `json:"max_queued_jobs,omitempty"`
	// MaxInflightShots bounds the summed shot budget of the tenant's
	// admitted-but-unsettled jobs. 0 = unlimited.
	MaxInflightShots int64 `json:"max_inflight_shots,omitempty"`
	// MaxConcurrentSweeps bounds how many of the tenant's sweeps may
	// run at once. 0 = unlimited.
	MaxConcurrentSweeps int `json:"max_concurrent_sweeps,omitempty"`
	// Weight is the tenant's deficit-round-robin quantum: under
	// saturation a weight-2 tenant drains twice the jobs per round of
	// a weight-1 tenant in the same priority class. Values below 1 are
	// treated as 1.
	Weight int `json:"weight,omitempty"`
	// Priority is the tenant's scheduling class. Higher classes drain
	// strictly first: queued (never running) jobs of lower classes are
	// preempted back behind them. Default 0.
	Priority int `json:"priority,omitempty"`
}

// Outcome classifies how a job settled, for the per-tenant terminal
// counters.
type Outcome int

// Terminal job outcomes recorded by JobSettled.
const (
	// Completed counts jobs that settled successfully.
	Completed Outcome = iota
	// Failed counts jobs that settled with a non-cancellation error.
	Failed
	// Cancelled counts jobs cancelled before or during execution.
	Cancelled
)

// Account is the runtime accounting record for one tenant: the static
// Tenant config plus admission gauges and lifetime counters. All
// methods are safe for concurrent use. One Account is shared by every
// layer (serve, experiment, cluster) of a process, so quotas bound the
// tenant's total footprint, not a per-layer one.
type Account struct {
	cfg Tenant

	// mu serializes reservations (check-then-add); releases decrement
	// the atomic gauges without it, which can only free capacity early,
	// never overshoot a quota.
	mu sync.Mutex

	queuedJobs    atomic.Int64
	runningJobs   atomic.Int64
	inflightShots atomic.Int64
	runningSweeps atomic.Int64

	enqueued      atomic.Uint64
	completed     atomic.Uint64
	failed        atomic.Uint64
	cancelled     atomic.Uint64
	sweeps        atomic.Uint64
	quotaRejected atomic.Uint64
}

// NewAnonymous returns a standalone unlimited Account named
// "anonymous", weight 1, priority 0 — the fallback identity when no
// registry is configured. Each Service/Manager owns its own anonymous
// Account, so accounting never bleeds across independent instances.
func NewAnonymous() *Account {
	return newAccount(Tenant{Name: AnonymousName, Weight: 1})
}

func newAccount(cfg Tenant) *Account {
	if cfg.Weight < 1 {
		cfg.Weight = 1
	}
	return &Account{cfg: cfg}
}

// Name returns the tenant's configured name.
func (a *Account) Name() string { return a.cfg.Name }

// Key returns the tenant's API key ("" for anonymous accounts). The
// cluster coordinator forwards it on worker dispatch so a fleet
// shares one tenants file end to end.
func (a *Account) Key() string { return a.cfg.APIKey }

// Weight returns the tenant's scheduling quantum, always >= 1.
func (a *Account) Weight() int { return a.cfg.Weight }

// Priority returns the tenant's scheduling class (higher drains
// first).
func (a *Account) Priority() int { return a.cfg.Priority }

// Config returns a copy of the tenant's static configuration.
func (a *Account) Config() Tenant { return a.cfg }

// TryAdmitJob reserves one queued-job slot and shots inflight shots,
// or returns ErrQuotaExceeded (wrapped with the violated limit) and
// reserves nothing. On success the tenant's enqueued counter
// increments; the reservation is released by JobStarted + JobSettled.
func (a *Account) TryAdmitJob(shots int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cfg.MaxQueuedJobs > 0 && a.queuedJobs.Load() >= int64(a.cfg.MaxQueuedJobs) {
		a.quotaRejected.Add(1)
		return fmt.Errorf("%w: tenant %q at max_queued_jobs=%d", ErrQuotaExceeded, a.cfg.Name, a.cfg.MaxQueuedJobs)
	}
	if a.cfg.MaxInflightShots > 0 && a.inflightShots.Load()+int64(shots) > a.cfg.MaxInflightShots {
		a.quotaRejected.Add(1)
		return fmt.Errorf("%w: tenant %q at max_inflight_shots=%d", ErrQuotaExceeded, a.cfg.Name, a.cfg.MaxInflightShots)
	}
	a.queuedJobs.Add(1)
	a.inflightShots.Add(int64(shots))
	a.enqueued.Add(1)
	return nil
}

// ForceAdmitJob reserves like TryAdmitJob but never fails — the
// journal-replay path, where the job was already admitted before the
// crash and must not be dropped even if quotas shrank meanwhile.
func (a *Account) ForceAdmitJob(shots int) {
	a.queuedJobs.Add(1)
	a.inflightShots.Add(int64(shots))
	a.enqueued.Add(1)
}

// NoteBypass counts a submission that settled without entering the
// queue (cache hit or already-cancelled context) — it bumps enqueued
// without reserving queue capacity. JobSettled must then be called
// with reserved=false.
func (a *Account) NoteBypass() { a.enqueued.Add(1) }

// CancelAdmission unwinds a TryAdmitJob reservation for a job that
// was never published — e.g. its durable admit record failed to fsync
// — reversing the gauges and the enqueued count without recording an
// outcome.
func (a *Account) CancelAdmission(shots int) {
	a.queuedJobs.Add(-1)
	a.inflightShots.Add(-int64(shots))
	a.enqueued.Add(^uint64(0)) // -1
}

// JobStarted moves one reserved job from queued to running.
func (a *Account) JobStarted() {
	a.queuedJobs.Add(-1)
	a.runningJobs.Add(1)
}

// JobSettled releases a job's reservation and records its outcome.
// running reports whether the job had passed JobStarted; reserved
// whether it held a TryAdmitJob/ForceAdmitJob reservation at all
// (fast-path jobs do not).
func (a *Account) JobSettled(running, reserved bool, shots int, oc Outcome) {
	if reserved {
		if running {
			a.runningJobs.Add(-1)
		} else {
			a.queuedJobs.Add(-1)
		}
		a.inflightShots.Add(-int64(shots))
	}
	switch oc {
	case Completed:
		a.completed.Add(1)
	case Cancelled:
		a.cancelled.Add(1)
	default:
		a.failed.Add(1)
	}
}

// TryAdmitSweep reserves one concurrent-sweep slot or returns
// ErrQuotaExceeded. Release with SweepDone.
func (a *Account) TryAdmitSweep() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cfg.MaxConcurrentSweeps > 0 && a.runningSweeps.Load() >= int64(a.cfg.MaxConcurrentSweeps) {
		a.quotaRejected.Add(1)
		return fmt.Errorf("%w: tenant %q at max_concurrent_sweeps=%d", ErrQuotaExceeded, a.cfg.Name, a.cfg.MaxConcurrentSweeps)
	}
	a.runningSweeps.Add(1)
	a.sweeps.Add(1)
	return nil
}

// ForceAdmitSweep reserves a sweep slot unconditionally — the
// journal-replay path for sweeps admitted before a crash.
func (a *Account) ForceAdmitSweep() {
	a.runningSweeps.Add(1)
	a.sweeps.Add(1)
}

// SweepDone releases one concurrent-sweep slot.
func (a *Account) SweepDone() { a.runningSweeps.Add(-1) }

// CancelSweepAdmission unwinds a TryAdmitSweep reservation for a
// sweep that was never published (e.g. its durable admit record
// failed to fsync), reversing the gauge and the sweeps counter.
func (a *Account) CancelSweepAdmission() {
	a.runningSweeps.Add(-1)
	a.sweeps.Add(^uint64(0)) // -1
}

// Usage is a point-in-time snapshot of one Account, served under
// "tenants" in /v1/stats and as per-tenant series on /metrics.
type Usage struct {
	// Name, Weight, and Priority echo the tenant's configuration.
	Name     string `json:"name"`
	Weight   int    `json:"weight"`
	Priority int    `json:"priority"`
	// QueuedJobs, RunningJobs, InflightShots, and RunningSweeps are
	// the live reservation gauges the quotas are enforced against.
	QueuedJobs    int64 `json:"queued_jobs"`
	RunningJobs   int64 `json:"running_jobs"`
	InflightShots int64 `json:"inflight_shots"`
	RunningSweeps int64 `json:"running_sweeps"`
	// Enqueued, Completed, Failed, and Cancelled count the tenant's
	// jobs by admission and terminal state; Sweeps counts admitted
	// sweeps; QuotaRejected counts admissions refused over quota.
	Enqueued      uint64 `json:"enqueued"`
	Completed     uint64 `json:"completed"`
	Failed        uint64 `json:"failed"`
	Cancelled     uint64 `json:"cancelled"`
	Sweeps        uint64 `json:"sweeps"`
	QuotaRejected uint64 `json:"quota_rejected"`
}

// Snapshot returns the account's current Usage.
func (a *Account) Snapshot() Usage {
	return Usage{
		Name:          a.cfg.Name,
		Weight:        a.cfg.Weight,
		Priority:      a.cfg.Priority,
		QueuedJobs:    a.queuedJobs.Load(),
		RunningJobs:   a.runningJobs.Load(),
		InflightShots: a.inflightShots.Load(),
		RunningSweeps: a.runningSweeps.Load(),
		Enqueued:      a.enqueued.Load(),
		Completed:     a.completed.Load(),
		Failed:        a.failed.Load(),
		Cancelled:     a.cancelled.Load(),
		Sweeps:        a.sweeps.Load(),
		QuotaRejected: a.quotaRejected.Load(),
	}
}

// Registry is an immutable set of tenant Accounts indexed by API key
// and by name. Load it once at startup; all lookups are lock-free.
type Registry struct {
	accounts []*Account
	byKey    map[string]*Account
	byName   map[string]*Account
}

// registryFile is the on-disk shape of the -tenants JSON file.
type registryFile struct {
	Tenants []Tenant `json:"tenants"`
}

// LoadFile reads a -tenants JSON file of the form
//
//	{"tenants": [{"name": "acme", "api_key": "...", "weight": 2,
//	              "max_queued_jobs": 64, ...}, ...]}
//
// validating that every tenant has a unique non-empty name and API
// key and that all quotas are non-negative.
func LoadFile(path string) (*Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: reading %s: %w", path, err)
	}
	reg, err := Load(data)
	if err != nil {
		return nil, fmt.Errorf("tenant: %s: %w", path, err)
	}
	return reg, nil
}

// Load parses and validates the tenants JSON (see LoadFile for the
// format).
func Load(data []byte) (*Registry, error) {
	var f registryFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("decoding tenants file: %w", err)
	}
	if len(f.Tenants) == 0 {
		return nil, errors.New("tenants file declares no tenants")
	}
	r := &Registry{
		byKey:  make(map[string]*Account, len(f.Tenants)),
		byName: make(map[string]*Account, len(f.Tenants)),
	}
	for i, t := range f.Tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("tenant %d: missing name", i)
		}
		if t.Name == AnonymousName {
			return nil, fmt.Errorf("tenant %d: name %q is reserved", i, AnonymousName)
		}
		if t.APIKey == "" {
			return nil, fmt.Errorf("tenant %q: missing api_key", t.Name)
		}
		if t.MaxQueuedJobs < 0 || t.MaxInflightShots < 0 || t.MaxConcurrentSweeps < 0 {
			return nil, fmt.Errorf("tenant %q: negative quota", t.Name)
		}
		if _, dup := r.byName[t.Name]; dup {
			return nil, fmt.Errorf("duplicate tenant name %q", t.Name)
		}
		if _, dup := r.byKey[t.APIKey]; dup {
			return nil, fmt.Errorf("tenant %q: duplicate api_key", t.Name)
		}
		a := newAccount(t)
		r.accounts = append(r.accounts, a)
		r.byName[t.Name] = a
		r.byKey[t.APIKey] = a
	}
	return r, nil
}

// Lookup resolves an API key to its Account, or ErrUnknownKey (also
// for the empty key — possession of a registry means authentication
// is required).
func (r *Registry) Lookup(key string) (*Account, error) {
	if a, ok := r.byKey[key]; ok {
		return a, nil
	}
	return nil, ErrUnknownKey
}

// Resolve returns the account a journaled tenant name replays under:
// the named tenant when r registers it, anon otherwise (an empty name,
// no registry, or a tenant removed across the restart). Accepted work
// is never dropped on replay; at worst it loses its attribution.
func (r *Registry) Resolve(name string, anon *Account) *Account {
	if r != nil {
		if a, ok := r.byName[name]; ok {
			return a
		}
	}
	return anon
}

// Accounts returns the registry's accounts in file order. The slice
// is shared; callers must not modify it.
func (r *Registry) Accounts() []*Account { return r.accounts }
