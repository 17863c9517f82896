package cluster

import (
	"quditkit/internal/metrics"
	"quditkit/internal/serve"
)

// WriteMetrics samples the coordinator's gauges and counters into b as
// Prometheus families (served at GET /metrics on the fleet edge). The
// registry rows come from the same snapshot /v1/stats serves; worker
// rows are deliberately registry-only (no live scrape) so a scrape
// never blocks on a slow worker.
func (c *Coordinator) WriteMetrics(b *metrics.Buffer) {
	now := c.cfg.now()
	c.mu.Lock()
	js := c.cfg.Journal.Status(c.journalLag, int64(c.journalReplayed))
	workers, alive, draining, assigned := 0, 0, 0, 0
	for _, n := range c.workers {
		workers++
		if now.Sub(n.lastBeat) <= c.cfg.HeartbeatTTL {
			alive++
		}
		if n.draining {
			draining++
		}
		assigned += len(n.assigned)
	}
	c.mu.Unlock()

	b.Family("quditd_cluster_workers", "Registered workers.", metrics.Gauge).
		Add(float64(workers))
	b.Family("quditd_cluster_workers_alive", "Workers within their heartbeat TTL.", metrics.Gauge).
		Add(float64(alive))
	b.Family("quditd_cluster_workers_draining", "Workers draining for shutdown.", metrics.Gauge).
		Add(float64(draining))
	b.Family("quditd_cluster_jobs_assigned", "Unsettled jobs routed to workers.", metrics.Gauge).
		Add(float64(assigned))
	b.Family("quditd_cluster_dispatched_total", "Jobs accepted and routed.", metrics.Counter).
		Add(float64(c.dispatched.Load()))
	b.Family("quditd_cluster_spills_total", "Dispatches that overflowed their owner onto a replica.", metrics.Counter).
		Add(float64(c.spills.Load()))
	b.Family("quditd_cluster_requeued_total", "Re-dispatches after worker loss.", metrics.Counter).
		Add(float64(c.requeued.Load()))
	b.Family("quditd_cluster_settled_total", "Jobs with a terminal view recorded.", metrics.Counter).
		Add(float64(c.settled.Load()))

	js.WriteMetrics(b, serve.JobJournalFamily)
	serve.WriteTenantMetrics(b, c.tenantUsage())
}
