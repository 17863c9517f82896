package core

import (
	"sync"
	"sync/atomic"

	"quditkit/internal/circuit"
	"quditkit/internal/noise"
)

// planCacheCap bounds the process-wide compiled-plan cache. Plans hold
// precomputed offsets and resolved Kraus sets — small next to the
// amplitude vectors they drive — so a few hundred entries cover a busy
// quditd comfortably.
const planCacheCap = 128

// planKey addresses a compiled plan by circuit content, the transpile
// pipeline that produced it, and the noise model. noise.Model is a flat
// comparable struct, so the triple is a map key directly; the circuit
// fingerprint is the same content address the job-service result cache
// uses, and the transpile fingerprint (zero for untranspiled direct
// backend use) keeps plans lowered against different devices or levels
// from ever aliasing through a circuit-fingerprint collision.
type planKey struct {
	fp    uint64
	tfp   uint64
	model noise.Model
}

// planCache is a process-wide bounded FIFO cache of compiled execution
// plans shared by every backend (and hence every Processor and serve
// shard). Plans are immutable and safe for concurrent execution, so
// cache hits hand the same *circuit.Plan to any number of workers.
var planCache = struct {
	mu         sync.Mutex
	plans      map[planKey]*circuit.Plan
	order      []planKey
	hits       atomic.Uint64
	misses     atomic.Uint64
	fusedPlans atomic.Uint64 // compiled plans that fused at least one run
	fusedOps   atomic.Uint64 // logical ops absorbed into fused kernels, cumulative
}{plans: make(map[planKey]*circuit.Plan)}

// planFor returns the compiled plan for (circuit, transpile
// fingerprint, model), compiling and caching on miss. A fingerprint
// collision between genuinely different circuits is caught by the
// dimension check and recompiled without caching (the same collision
// tolerance the result cache accepts).
func planFor(c *circuit.Circuit, model noise.Model, transpileFP uint64) (*circuit.Plan, error) {
	key := planKey{fp: Fingerprint(c), tfp: transpileFP, model: model}
	planCache.mu.Lock()
	if p, ok := planCache.plans[key]; ok {
		planCache.mu.Unlock()
		if p.Dims().Equal(c.Dims()) && p.Len() == c.Len() {
			planCache.hits.Add(1)
			return p, nil
		}
		return c.Compile(model) // fingerprint collision: do not poison the cache
	}
	planCache.mu.Unlock()
	planCache.misses.Add(1)
	p, err := c.Compile(model)
	if err != nil {
		return nil, err
	}
	if fused := p.OpsFused(); fused > 0 {
		planCache.fusedPlans.Add(1)
		planCache.fusedOps.Add(uint64(fused))
	}
	planCache.mu.Lock()
	if _, ok := planCache.plans[key]; !ok {
		planCache.plans[key] = p
		planCache.order = append(planCache.order, key)
		for len(planCache.order) > planCacheCap {
			delete(planCache.plans, planCache.order[0])
			planCache.order = planCache.order[1:]
		}
	}
	planCache.mu.Unlock()
	return p, nil
}

// PlanCacheStats reports the process-wide compiled-plan cache counters:
// hits, misses, and current entry count. The job service surfaces them
// in its /v1/stats payload.
func PlanCacheStats() (hits, misses uint64, entries int) {
	planCache.mu.Lock()
	entries = len(planCache.plans)
	planCache.mu.Unlock()
	return planCache.hits.Load(), planCache.misses.Load(), entries
}

// PlanCacheFusion reports cumulative gate-fusion work across all plan
// compilations since process start (or the last PlanCacheReset):
// fusedPlans counts compiled plans where at least one run fused,
// fusedOps the logical ops absorbed into chained kernels. Surfaced in
// the job service's /v1/stats alongside the hit/miss counters.
func PlanCacheFusion() (fusedPlans, fusedOps uint64) {
	return planCache.fusedPlans.Load(), planCache.fusedOps.Load()
}

// PlanCacheReset empties the process-wide plan cache and zeroes every
// counter. Benchmarks use it so each measurement starts from a cold,
// warmed-on-its-own-terms cache instead of inheriting plans compiled
// by whatever ran earlier in the same process; tests use it for
// counter isolation. Concurrent executions holding a *circuit.Plan are
// unaffected — plans are immutable.
func PlanCacheReset() {
	planCache.mu.Lock()
	planCache.plans = make(map[planKey]*circuit.Plan)
	planCache.order = nil
	planCache.mu.Unlock()
	planCache.hits.Store(0)
	planCache.misses.Store(0)
	planCache.fusedPlans.Store(0)
	planCache.fusedOps.Store(0)
}
