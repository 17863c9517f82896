package serve

import (
	"strconv"

	"quditkit/internal/metrics"
	"quditkit/internal/tenant"
)

// WriteMetrics samples the service's gauges and counters into b as
// Prometheus families (served at GET /metrics). Everything is read
// from the same atomics Stats uses, so a scrape costs nothing on the
// intake path.
func (s *Service) WriteMetrics(b *metrics.Buffer) {
	st := s.Stats()

	b.Family("quditd_jobs_enqueued_total", "Accepted job submissions since startup.", metrics.Counter).
		Add(float64(st.Enqueued))
	b.Family("quditd_jobs_completed_total", "Jobs settled Done.", metrics.Counter).
		Add(float64(st.Completed))
	b.Family("quditd_jobs_failed_total", "Jobs settled Failed.", metrics.Counter).
		Add(float64(st.Failed))
	b.Family("quditd_jobs_cancelled_total", "Jobs settled Cancelled.", metrics.Counter).
		Add(float64(st.Cancelled))
	b.Family("quditd_jobs_queued", "Jobs currently queued.", metrics.Gauge).
		Add(float64(st.Queued))
	b.Family("quditd_jobs_running", "Jobs currently running.", metrics.Gauge).
		Add(float64(st.Running))
	b.Family("quditd_inflight_shots", "Summed shot budget of running jobs.", metrics.Gauge).
		Add(float64(st.InflightShots))

	qd := b.Family("quditd_queue_depth", "Queued jobs per shard.", metrics.Gauge)
	for i, d := range st.ShardDepths {
		qd.Add(float64(d), "shard", strconv.Itoa(i))
	}

	b.Family("quditd_cache_hits_total", "Result-cache hits.", metrics.Counter).Add(float64(st.CacheHits))
	b.Family("quditd_cache_misses_total", "Result-cache misses.", metrics.Counter).Add(float64(st.CacheMisses))
	b.Family("quditd_cache_evictions_total", "Result-cache evictions.", metrics.Counter).Add(float64(st.CacheEvictions))
	b.Family("quditd_cache_entries", "Result-cache population.", metrics.Gauge).Add(float64(st.CacheLen))
	b.Family("quditd_plan_cache_hits_total", "Compiled-plan cache hits.", metrics.Counter).Add(float64(st.PlanCacheHits))
	b.Family("quditd_plan_cache_misses_total", "Compiled-plan cache misses.", metrics.Counter).Add(float64(st.PlanCacheMisses))
	b.Family("quditd_plan_cache_entries", "Compiled-plan cache population.", metrics.Gauge).Add(float64(st.PlanCacheLen))
	b.Family("quditd_plan_cache_fused_plans_total", "Compiled plans with at least one fused gate run.", metrics.Counter).Add(float64(st.PlanCacheFusedPlans))
	b.Family("quditd_plan_cache_fused_ops_total", "Logical ops absorbed into fused kernels.", metrics.Counter).Add(float64(st.PlanCacheFusedOps))

	st.Journal.WriteMetrics(b, JobJournalFamily)

	WriteTenantMetrics(b, st.Tenants)
}

// WriteTenantMetrics renders per-tenant usage snapshots as labeled
// families, shared by the serve and cluster /metrics endpoints.
func WriteTenantMetrics(b *metrics.Buffer, usages []tenant.Usage) {
	queued := b.Family("quditd_tenant_queued_jobs", "Queued jobs per tenant.", metrics.Gauge)
	running := b.Family("quditd_tenant_running_jobs", "Running jobs per tenant.", metrics.Gauge)
	shots := b.Family("quditd_tenant_inflight_shots", "Reserved inflight shots per tenant.", metrics.Gauge)
	sweepsRunning := b.Family("quditd_tenant_running_sweeps", "Running sweeps per tenant.", metrics.Gauge)
	enq := b.Family("quditd_tenant_jobs_enqueued_total", "Accepted jobs per tenant.", metrics.Counter)
	done := b.Family("quditd_tenant_jobs_completed_total", "Completed jobs per tenant.", metrics.Counter)
	failed := b.Family("quditd_tenant_jobs_failed_total", "Failed jobs per tenant.", metrics.Counter)
	cancelled := b.Family("quditd_tenant_jobs_cancelled_total", "Cancelled jobs per tenant.", metrics.Counter)
	sweeps := b.Family("quditd_tenant_sweeps_total", "Admitted sweeps per tenant.", metrics.Counter)
	rejected := b.Family("quditd_tenant_quota_rejected_total", "Admissions refused over quota per tenant.", metrics.Counter)
	for _, u := range usages {
		l := []string{"tenant", u.Name}
		queued.Add(float64(u.QueuedJobs), l...)
		running.Add(float64(u.RunningJobs), l...)
		shots.Add(float64(u.InflightShots), l...)
		sweepsRunning.Add(float64(u.RunningSweeps), l...)
		enq.Add(float64(u.Enqueued), l...)
		done.Add(float64(u.Completed), l...)
		failed.Add(float64(u.Failed), l...)
		cancelled.Add(float64(u.Cancelled), l...)
		sweeps.Add(float64(u.Sweeps), l...)
		rejected.Add(float64(u.QuotaRejected), l...)
	}
}
