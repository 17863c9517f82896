package cluster

import (
	"quditkit/internal/journal"
	"quditkit/internal/serve"
	"quditkit/internal/tenant"
)

// RegisterRequest is the body of POST /v1/cluster/register: a worker
// announcing itself to the coordinator.
type RegisterRequest struct {
	// ID is the worker's stable name; re-registering an ID updates its
	// URL and resets its heartbeat clock.
	ID string `json:"id"`
	// URL is the base URL the coordinator dispatches jobs to (e.g.
	// "http://10.0.0.7:8080").
	URL string `json:"url"`
}

// RegisterResponse acknowledges a registration and tells the worker
// the fleet's heartbeat timing.
type RegisterResponse struct {
	// HeartbeatTTLMS is how long the coordinator waits for a heartbeat
	// before declaring the worker dead and requeueing its jobs.
	HeartbeatTTLMS int64 `json:"heartbeat_ttl_ms"`
	// IntervalMS is the heartbeat interval the worker should use —
	// a fraction of the TTL so one dropped beat is survivable.
	IntervalMS int64 `json:"interval_ms"`
}

// HeartbeatRequest is the body of POST /v1/cluster/heartbeat.
type HeartbeatRequest struct {
	// ID names the worker beating.
	ID string `json:"id"`
}

// DeregisterRequest is the body of POST /v1/cluster/deregister: a
// worker starting its drain. The coordinator stops routing new jobs
// to it, collects every unsettled result it still owns, and only then
// responds — so a worker that waits for the response can exit without
// losing results.
type DeregisterRequest struct {
	// ID names the worker draining.
	ID string `json:"id"`
}

// DeregisterResponse reports the drain outcome.
type DeregisterResponse struct {
	// Collected counts results fetched from the draining worker.
	Collected int `json:"collected"`
	// Requeued counts jobs that could not be collected and were
	// re-dispatched to surviving workers instead.
	Requeued int `json:"requeued"`
}

// JobView is the coordinator's wire view of one job: the owning
// worker's serve.JobView plus fleet-level routing detail. The embedded
// ID is rewritten to the coordinator-issued job ID, so clients poll
// the coordinator, never a worker directly.
type JobView struct {
	serve.JobView
	// Worker is the ID of the worker the job is (or was last) assigned
	// to.
	Worker string `json:"worker,omitempty"`
	// Requeues counts how many times the job was re-dispatched after a
	// worker loss; zero for the common case.
	Requeues int `json:"requeues,omitempty"`
}

// WorkerStats is one worker's row in the coordinator's /v1/stats
// aggregate: registry state plus the gauges scraped live from the
// worker's own /v1/stats.
type WorkerStats struct {
	// ID and URL identify the worker.
	ID  string `json:"id"`
	URL string `json:"url"`
	// Alive reports whether the last heartbeat is within the TTL;
	// Draining that the worker announced shutdown.
	Alive    bool `json:"alive"`
	Draining bool `json:"draining,omitempty"`
	// LastHeartbeatMS is the age of the last heartbeat in
	// milliseconds.
	LastHeartbeatMS int64 `json:"last_heartbeat_ms"`
	// Assigned counts unsettled jobs the coordinator has routed to
	// this worker.
	Assigned int `json:"assigned"`
	// QueueDepth, Running, and InflightShots are the worker's live
	// load gauges (serve.Stats Queued/Running/InflightShots).
	QueueDepth    int   `json:"queue_depth"`
	Running       int   `json:"running"`
	InflightShots int64 `json:"inflight_shots"`
	// CacheHits/CacheMisses are the worker's result-cache counters and
	// CacheHitRate their ratio (0 when the worker has seen no
	// lookups).
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// StatsError is set when the live scrape failed; the load gauges
	// are then stale zeros.
	StatsError string `json:"stats_error,omitempty"`
}

// Stats is the coordinator's /v1/stats body: per-worker gauges plus
// fleet-level routing counters.
type Stats struct {
	// Role is always "coordinator", so one probe distinguishes
	// topologies.
	Role string `json:"role"`
	// Workers lists the registered workers with their live gauges.
	Workers []WorkerStats `json:"workers"`
	// Dispatched counts jobs accepted and routed; Spills those that
	// overflowed their owner onto a replica; Requeued re-dispatches
	// after worker loss; Settled jobs with a terminal view recorded.
	Dispatched uint64 `json:"dispatched"`
	Spills     uint64 `json:"spills"`
	Requeued   uint64 `json:"requeued"`
	Settled    uint64 `json:"settled"`
	// HeartbeatTTLMS echoes the fleet heartbeat TTL.
	HeartbeatTTLMS int64 `json:"heartbeat_ttl_ms"`
	// Tenants snapshots per-tenant usage at the fleet edge (registry
	// order, anonymous last); omitted when no registry is configured
	// and nothing anonymous has been metered.
	Tenants []tenant.Usage `json:"tenants,omitempty"`
	// Journal carries the coordinator journal's gauges, the block a
	// standalone node serves; nil when the coordinator runs without a
	// journal.
	Journal *journal.Status `json:"journal,omitempty"`
}
