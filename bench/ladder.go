package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"quditkit/internal/circuit"
	"quditkit/internal/core"
	"quditkit/internal/experiment"
	"quditkit/internal/journal"
	"quditkit/internal/noise"
	"quditkit/internal/qmath"
	"quditkit/internal/serve"
	"quditkit/internal/tenant"
	"quditkit/internal/transpile"
)

// reconcileTolerancePct is how far the summed exclusive layer costs may
// land from the 1-client end-to-end median before the ladder is
// reported as not reconciling.
const reconcileTolerancePct = 15

// rungs holds the median single-threaded cost, in ms, of each rung of
// the ladder for one workload's jobs. Each rung calls a higher public
// entry point than the one before it.
type rungs struct {
	Kernel    float64 // compiled shots on the routed circuit (circuit)
	Backend   float64 // core backend Execute on the routed circuit
	Transpile float64 // Processor.Transpile
	Submit    float64 // Processor.SubmitOne: transpile + backend + result assembly
	Serve     float64 // serve.Service Enqueue + Await, result cache off
	Journal   float64 // the same with a fsync'd journal (EnqueueJournaled)
	CacheHit  float64 // Enqueue + Await answered by the result cache
	HTTPHit   float64 // POST ?wait=1 answered by the daemon's result cache
	Direct    float64 // POST ?wait=1 to the workload's own simulating node
	Coord     float64 // POST ?wait=1 through a coordinator
	Worker    float64 // POST ?wait=1 straight to that coordinator's worker
	E2E       float64 // the workload's own 1-client end-to-end median

	JournalOnPath bool // the workload's daemon journals jobs
	HopOnPath     bool // the workload's jobs cross a coordinator
}

// layerRow is one line of the layers table. Exclusive is the layer's
// own cost: its rung minus the rung below, clamped at zero.
type layerRow struct {
	Layer       string  `json:"layer"`
	RungMS      float64 `json:"rung_ms"`
	ExclusiveMS float64 `json:"exclusive_ms"`
	OnPath      bool    `json:"on_path"`
}

// ladderSummary reconciles the on-path exclusive costs with the
// 1-client end-to-end median.
type ladderSummary struct {
	SumMS           float64 `json:"sum_exclusive_ms"`
	E2EMS           float64 `json:"e2e_1client_ms"`
	UnattributedPct float64 `json:"unattributed_pct"`
	TolerancePct    float64 `json:"tolerance_pct"`
	Reconciled      bool    `json:"reconciled"`
}

// layers turns rung medians into the exclusive-cost table. The HTTP
// layer is measured on its own (a cache-hit POST minus an in-process
// cache hit) rather than as a residual, so the sum of the rows is an
// independent estimate of the end-to-end median, not an identity.
func layers(r rungs) ([]layerRow, ladderSummary) {
	excl := func(x float64) float64 { return math.Max(x, 0) }
	rows := []layerRow{
		{"circuit.kernel", r.Kernel, excl(r.Kernel), true},
		{"core.backend", r.Backend, excl(r.Backend - r.Kernel), true},
		{"core.transpile", r.Transpile, excl(r.Transpile), true},
		{"core.result", r.Submit, excl(r.Submit - r.Transpile - r.Backend), true},
		{"serve.queue", r.Serve, excl(r.Serve - r.Submit), true},
		{"journal.append", r.Journal, excl(r.Journal - r.Serve), r.JournalOnPath},
		{"serve.http", r.HTTPHit, excl(r.HTTPHit - r.CacheHit), true},
		{"cluster.hop", r.Coord, excl(r.Coord - r.Worker), r.HopOnPath},
	}
	s := ladderSummary{E2EMS: r.E2E, TolerancePct: reconcileTolerancePct}
	for _, row := range rows {
		if row.OnPath {
			s.SumMS += row.ExclusiveMS
		}
	}
	if r.E2E > 0 {
		s.UnattributedPct = (r.E2E - s.SumMS) / r.E2E * 100
	}
	s.Reconciled = math.Abs(s.UnattributedPct) <= reconcileTolerancePct
	return rows, s
}

// prepared is one ladder template resolved exactly as Submit resolves
// it: built, transpiled onto the daemon's device, and compiled.
type prepared struct {
	req   serve.JobRequest
	circ  *circuit.Circuit
	kind  core.BackendKind
	model noise.Model
	phys  *circuit.Circuit
	plan  *circuit.Plan
	ws    *circuit.Workspace
	shots int
}

// ladder replays one workload's jobs down the rungs, single-threaded.
type ladder struct {
	e      *env
	topo   topology
	proc   *core.Processor
	tfp    uint64 // fingerprint of the default transpile pipeline
	tmpl   []*prepared
	key    string
	reg    *tenant.Registry
	shards int
	r      rungs
	m      map[string]float64

	rng     *rand.Rand // the kernel's reseeded source
	sampler qmath.CDFSampler
}

// splitmix is an O(1)-reseedable rand.Source64, the same generator the
// trajectory backend reseeds per shot.
type splitmix struct{ s uint64 }

func (x *splitmix) Seed(seed int64) { x.s = uint64(seed) }
func (x *splitmix) Uint64() uint64 {
	x.s += 0x9e3779b97f4a7c15
	z := x.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
func (x *splitmix) Int63() int64 { return int64(x.Uint64() >> 1) }

// runLadder measures every rung on the workload's jobs and returns the
// per-layer metrics, the layers table and its reconciliation.
func runLadder(e *env, w workload) (map[string]float64, []layerRow, ladderSummary, error) {
	topo := w.topology()
	proc, err := core.NewCompactProcessor(2, 2, e.cfg.seed)
	if err != nil {
		return nil, nil, ladderSummary{}, err
	}
	pipe, err := transpile.New(proc.Device, transpile.LevelRoute)
	if err != nil {
		return nil, nil, ladderSummary{}, err
	}
	l := &ladder{e: e, topo: topo, proc: proc, tfp: pipe.Fingerprint(), shards: topo.shards, m: map[string]float64{}, rng: rand.New(&splitmix{})}
	if topo.tenants {
		l.key = tenantKeys[0]
		if l.reg, err = tenant.Load([]byte(tenantsJSON)); err != nil {
			return nil, nil, ladderSummary{}, err
		}
	}
	l.r.JournalOnPath = topo.journal && !topo.fleet
	l.r.HopOnPath = topo.fleet

	cells, err := l.experimentRung()
	if err != nil {
		return nil, nil, ladderSummary{}, err
	}
	if err := l.prepare(w.templates(cells)); err != nil {
		return nil, nil, ladderSummary{}, err
	}
	if err := l.allocations(); err != nil {
		return nil, nil, ladderSummary{}, err
	}
	if err := l.measure(); err != nil {
		return nil, nil, ladderSummary{}, err
	}
	if topo.fleet {
		l.r.E2E = l.r.Coord
	} else {
		l.r.E2E = l.r.Direct
	}
	rows, sum := layers(l.r)
	l.m["ladder.unattributed_pct"] = sum.UnattributedPct
	return l.m, rows, sum, nil
}

// timed measures one call.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// allocsPer is the mean heap allocations of one fn call over n calls.
func allocsPer(n int, fn func(i int) error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// job returns template i (round-robin) with a seed no other rung or
// run uses, so no result cache can answer it.
func (l *ladder) job(i int, rung string) (*prepared, serve.JobRequest) {
	p := l.tmpl[i%len(l.tmpl)]
	req := p.req
	seed := mix(l.e.cfg.seed, "ladder-"+rung, i)
	req.Seed = &seed
	return p, req
}

// noiseModel is the model a request executes under.
func noiseModel(req serve.JobRequest, proc *core.Processor) (noise.Model, error) {
	switch {
	case req.DeriveNoiseDim > 0:
		return proc.NoiseModelForDim(req.DeriveNoiseDim)
	case req.Noise != nil:
		n := req.Noise
		return noise.Model{Depol1: n.Depol1, Depol2: n.Depol2, Damping: n.Damping, Dephasing: n.Dephasing,
			IdleDamping: n.IdleDamping, IdleDephasing: n.IdleDephasing}, nil
	}
	return noise.Model{}, nil
}

// prepare resolves the templates and times Circuit.Compile on each
// distinct routed circuit.
func (l *ladder) prepare(reqs []serve.JobRequest) error {
	if len(reqs) == 0 {
		return fmt.Errorf("ladder: workload has no job templates")
	}
	var compile []float64
	seen := map[uint64]bool{}
	for _, req := range reqs {
		p := &prepared{req: req, shots: max(req.Shots, 1)}
		var err error
		if p.circ, err = serve.BuildCircuit(req.Circuit); err != nil {
			return err
		}
		if p.kind, err = serve.ParseBackend(req.Backend); err != nil {
			return err
		}
		if p.model, err = noiseModel(req, l.proc); err != nil {
			return err
		}
		opts, err := req.Options(l.proc)
		if err != nil {
			return err
		}
		lowered, err := l.proc.Transpile(p.circ, opts...)
		if err != nil {
			return err
		}
		p.phys = lowered.Physical
		fp := core.Fingerprint(p.phys)
		for k := 0; k < 3 && !seen[fp]; k++ {
			d, err := timed(func() (err error) { p.plan, err = p.phys.Compile(p.model); return })
			if err != nil {
				return err
			}
			compile = append(compile, ms(d))
		}
		seen[fp] = true
		if p.plan == nil {
			if p.plan, err = p.phys.Compile(p.model); err != nil {
				return err
			}
		}
		if p.ws, err = p.plan.NewWorkspace(); err != nil {
			return err
		}
		l.tmpl = append(l.tmpl, p)
	}
	l.m["circuit.compile_ms"] = median(compile)
	return nil
}

// kernel runs a job's compiled engine alone: per shot, a RunShot on the
// routed circuit with an O(1) reseed, its Born probabilities and one
// CDF draw (statevector: one RunPure and a draw per shot;
// density-matrix: one RunDensity and its samples).
func (l *ladder) kernel(p *prepared, seed int64) error {
	switch p.kind {
	case core.Trajectory:
		for t := 0; t < p.shots; t++ {
			l.rng.Seed(seed + int64(t))
			if _, err := p.plan.RunShot(p.ws, l.rng); err != nil {
				return err
			}
			l.sampler.Load(p.ws.BornProbabilities())
			l.sampler.Draw(l.rng)
		}
	case core.Statevector:
		l.rng.Seed(seed)
		p.plan.RunPure(p.ws)
		l.sampler.Load(p.ws.BornProbabilities())
		for t := 0; t < p.shots; t++ {
			l.sampler.Draw(l.rng)
		}
	default:
		l.rng.Seed(seed)
		r, err := p.plan.RunDensity()
		if err != nil {
			return err
		}
		r.Sample(l.rng, p.shots)
	}
	return nil
}

// backend runs the core backend on a job's routed circuit.
func (l *ladder) backend(p *prepared, req serve.JobRequest) error {
	be, err := core.BackendFor(p.kind)
	if err != nil {
		return err
	}
	_, err = be.Execute(p.phys, core.ExecSpec{Noise: p.model, Shots: req.Shots, Seed: *req.Seed,
		Workers: req.Workers, TranspileFP: l.tfp})
	return err
}

// submit runs Processor.SubmitOne as the daemon would.
func (l *ladder) submit(p *prepared, req serve.JobRequest) error {
	opts, err := req.Options(l.proc)
	if err == nil {
		_, err = l.proc.SubmitOne(p.circ, opts...)
	}
	return err
}

// allocations counts heap allocations per shot of the kernel and per
// job of the backend and of SubmitOne, once per template.
func (l *ladder) allocations() error {
	n := len(l.tmpl)
	shots := 0
	for i, p := range l.tmpl {
		shots += p.shots
		if err := l.backend(l.job(i, "warm")); err != nil { // fills the plan cache
			return err
		}
	}
	kernel, err := allocsPer(n, func(i int) error { return l.kernel(l.tmpl[i], int64(i)) })
	if err != nil {
		return err
	}
	l.m["circuit.shot_allocs"] = kernel * float64(n) / float64(shots)
	if l.m["core.backend_allocs"], err = allocsPer(n, func(i int) error { return l.backend(l.job(i, "allocs")) }); err != nil {
		return err
	}
	l.m["core.submit_allocs"], err = allocsPer(n, func(i int) error { return l.submit(l.job(i, "allocs")) })
	return err
}

// rung is one timed entry point of the ladder.
type rung struct {
	name string
	call func(i int) (time.Duration, error)
	xs   []float64 // ms per call
}

// measure times every rung in interleaved rounds, one call of
// each per round, so a slow spell of the host lands on all of them
// alike instead of on whichever rung happened to be running.
func (l *ladder) measure() error {
	ctx := context.Background()
	svc, err := serve.New(l.proc, serve.Config{Shards: l.shards, CacheSize: -1})
	if err != nil {
		return err
	}
	defer svc.Close()
	dir := filepath.Join(l.e.cfg.work, "ladder-journal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	jobs, _, err := journal.Open(dir, "jobs")
	if err != nil {
		return err
	}
	defer jobs.Close()
	var acct *tenant.Account
	if l.reg != nil {
		if acct, err = l.reg.Lookup(l.key); err != nil {
			return err
		}
	}
	svcJ, err := serve.New(l.proc, serve.Config{Shards: l.shards, CacheSize: -1, Journal: jobs,
		JournalCompactEvery: -1, Tenants: l.reg})
	if err != nil {
		return err
	}
	defer svcJ.Close()
	svcC, err := serve.New(l.proc, serve.Config{Shards: l.shards})
	if err != nil {
		return err
	}
	defer svcC.Close()
	fleet := l.e.dep
	if !l.topo.fleet {
		// A workload without a fleet gets a fleet_dispatch-shaped one
		// for the hop rung.
		fleet, err = launch(l.e.cfg.bin, filepath.Join(l.e.cfg.work, "ladder-fleet"),
			(&fleetWorkload{}).topology(), l.e.cfg.seed, l.e.c[0])
		if err != nil {
			return err
		}
		defer fleet.close()
	}
	node := l.e.dep.simulators()[0].url() + "/v1/jobs"
	coord := fleet.front().url() + "/v1/jobs"
	worker := fleet.simulators()[0].url() + "/v1/jobs"

	enqueueAwait := func(s *serve.Service, enqueue func() (serve.JobID, error)) error {
		id, err := enqueue()
		if err == nil {
			_, err = s.Await(ctx, id)
		}
		return err
	}
	hitP, hitReq := l.job(0, "cache")
	hitOpts, err := hitReq.Options(l.proc)
	if err != nil {
		return err
	}
	hitBody := mustJSON(hitReq)
	if err := enqueueAwait(svcC, func() (serve.JobID, error) { return svcC.Enqueue(hitP.circ, hitOpts...) }); err != nil {
		return err
	}
	if _, err := l.post(node, l.key, hitBody, true); err != nil {
		return err
	}

	var perShotUS []float64
	// fresh times one call on a job no cache has seen.
	fresh := func(name string, fn func(p *prepared, req serve.JobRequest) error) *rung {
		return &rung{name: name, call: func(i int) (time.Duration, error) {
			p, req := l.job(i, name)
			return timed(func() error { return fn(p, req) })
		}}
	}
	postFresh := func(name, url, key string) *rung {
		return fresh(name, func(_ *prepared, req serve.JobRequest) error {
			_, err := l.post(url, key, mustJSON(req), true)
			return err
		})
	}
	all := []*rung{
		{name: "circuit.kernel", call: func(i int) (time.Duration, error) {
			p := l.tmpl[i%len(l.tmpl)]
			d, err := timed(func() error { return l.kernel(p, mix(l.e.cfg.seed, "ladder-kernel", i)) })
			perShotUS = append(perShotUS, float64(d)/float64(time.Microsecond)/float64(p.shots))
			return d, err
		}},
		fresh("core.backend", l.backend),
		fresh("core.transpile", func(p *prepared, req serve.JobRequest) error {
			opts, err := req.Options(l.proc)
			if err == nil {
				_, err = l.proc.Transpile(p.circ, opts...)
			}
			return err
		}),
		fresh("core.submit", l.submit),
		fresh("serve.enqueue_await", func(p *prepared, req serve.JobRequest) error {
			opts, err := req.Options(l.proc)
			if err != nil {
				return err
			}
			return enqueueAwait(svc, func() (serve.JobID, error) { return svc.Enqueue(p.circ, opts...) })
		}),
		fresh("journal.enqueue_await", func(p *prepared, req serve.JobRequest) error {
			opts, err := req.Options(l.proc)
			if err != nil {
				return err
			}
			payload := mustJSON(req)
			return enqueueAwait(svcJ, func() (serve.JobID, error) { return svcJ.EnqueueJournaled(acct, payload, p.circ, opts...) })
		}),
		{name: "serve.cache_hit", call: func(int) (time.Duration, error) {
			return timed(func() error {
				return enqueueAwait(svcC, func() (serve.JobID, error) { return svcC.Enqueue(hitP.circ, hitOpts...) })
			})
		}},
		postFresh("http.post_wait", node, l.key),
		{name: "http.post_cached", call: func(int) (time.Duration, error) {
			return timed(func() error { _, err := l.post(node, l.key, hitBody, true); return err })
		}},
		fresh("http.sse_terminal", func(_ *prepared, req serve.JobRequest) error {
			r, err := l.post(node, l.key, mustJSON(req), false)
			if err == nil {
				_, err = terminalEvent(l.e.c[0].do(http.MethodGet, node+"/"+r.ID+"/events", l.key, nil))
			}
			return err
		}),
		postFresh("cluster.coordinator_wait", coord, ""),
		postFresh("cluster.worker_wait", worker, ""),
	}

	minRounds, minDur, maxRounds := 15, 4*time.Second, 500
	if l.e.cfg.small {
		minRounds, minDur = 3, 0
	}
	stopCkpt := watchSize(fleet.ckpt)
	before := jobs.Stats()
	start := time.Now()
	for i := 0; i < maxRounds && (i < minRounds || time.Since(start) < minDur); i++ {
		for _, r := range all {
			req := l.e.tr.newReq()
			sp := l.e.tr.begin(req, 0, "ladder."+r.name)
			d, err := r.call(i)
			l.e.tr.end(sp)
			if err != nil {
				stopCkpt()
				return fmt.Errorf("ladder rung %s: %w", r.name, err)
			}
			r.xs = append(r.xs, ms(d))
		}
	}
	l.m["cluster.checkpoint_bytes"] = stopCkpt()
	svcJ.Close() // settlements are journaled by the workers; let them land
	after := jobs.Stats()

	med := make(map[string]float64, len(all))
	for _, r := range all {
		med[r.name] = median(r.xs)
	}
	rounds := float64(len(all[0].xs))
	l.r.Kernel, l.r.Backend = med["circuit.kernel"], med["core.backend"]
	l.r.Transpile, l.r.Submit = med["core.transpile"], med["core.submit"]
	l.r.Serve, l.r.Journal, l.r.CacheHit = med["serve.enqueue_await"], med["journal.enqueue_await"], med["serve.cache_hit"]
	l.r.Direct, l.r.HTTPHit = med["http.post_wait"], med["http.post_cached"]
	l.r.Coord, l.r.Worker = med["cluster.coordinator_wait"], med["cluster.worker_wait"]
	l.m["circuit.shot_us"] = median(perShotUS)
	l.m["core.transpile_ms"] = l.r.Transpile
	l.m["core.backend_ms"] = l.r.Backend
	l.m["core.submit_ms"] = l.r.Submit
	l.m["core.result_ms"] = l.r.Submit - l.r.Transpile - l.r.Backend
	l.m["serve.enqueue_await_ms"] = l.r.Serve
	l.m["serve.queue_ms"] = l.r.Serve - l.r.Submit
	l.m["serve.cache_hit_us"] = l.r.CacheHit * 1000
	l.m["serve.http_ms"] = l.r.HTTPHit - l.r.CacheHit
	l.m["serve.sse_terminal_ms"] = med["http.sse_terminal"]
	l.m["cluster.hop_ms"] = l.r.Coord - l.r.Worker
	appends := float64(after.Appends - before.Appends)
	l.m["journal.appends_per_op"] = appends / rounds
	l.m["journal.bytes_per_op"] = float64(after.WALBytes-before.WALBytes) / rounds
	return l.appendProbe(dir, int(float64(after.WALBytes-before.WALBytes)/appends))
}

// appendProbe times raw journal.Append on the workdir's filesystem with
// records of the workload's size (framing included).
func (l *ladder) appendProbe(dir string, recordBytes int) error {
	probe, _, err := journal.Open(dir, "probe")
	if err != nil {
		return err
	}
	defer probe.Close()
	payload := make([]byte, max(recordBytes-9, 1))
	n := 200
	if l.e.cfg.small {
		n = 5
	}
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := timed(func() error { return probe.Append(1, payload) })
		if err != nil {
			return err
		}
		xs = append(xs, ms(d))
	}
	l.m["journal.append_us"] = median(xs) * 1000
	return nil
}

// post sends one job body with ?wait=1 (or async) and requires success.
func (l *ladder) post(url, key string, body []byte, wait bool) (jobReply, error) {
	if wait {
		return doneJob(l.e.c[0].do(http.MethodPost, url+"?wait=1", key, body))
	}
	return acceptedJob(l.e.c[0].do(http.MethodPost, url, key, body))
}

// watchSize polls a file's size every few milliseconds until the
// returned stop function is called, which reports the largest size
// seen. An empty path watches nothing.
func watchSize(path string) (stop func() float64) {
	if path == "" {
		return func() float64 { return 0 }
	}
	var (
		mu   sync.Mutex
		peak int64
	)
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			if fi, err := os.Stat(path); err == nil {
				mu.Lock()
				peak = max(peak, fi.Size())
				mu.Unlock()
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		<-finished
		mu.Lock()
		defer mu.Unlock()
		return float64(peak)
	}
}

// cellRunner wraps the sweep manager's Runner to time every cell and
// keep its job body.
type cellRunner struct {
	inner experiment.Runner
	mu    sync.Mutex
	spans [][2]time.Time
	jobs  []serve.JobRequest
}

// RunJob implements experiment.Runner.
func (c *cellRunner) RunJob(ctx context.Context, acct *tenant.Account, req serve.JobRequest) (serve.JobView, error) {
	start := time.Now()
	v, err := c.inner.RunJob(ctx, acct, req)
	end := time.Now()
	c.mu.Lock()
	c.spans = append(c.spans, [2]time.Time{start, end})
	c.jobs = append(c.jobs, req)
	c.mu.Unlock()
	return v, err
}

// covered is the total time during which at least one interval is
// open: the sweep's time on its cells' critical path.
func covered(spans [][2]time.Time) time.Duration {
	s := append([][2]time.Time(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i][0].Before(s[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, iv := range s {
		switch {
		case i == 0:
			cur = iv
		case iv[0].After(cur[1]):
			total += cur[1].Sub(cur[0])
			cur = iv
		case iv[1].After(cur[1]):
			cur[1] = iv[1]
		}
	}
	if len(s) > 0 {
		total += cur[1].Sub(cur[0])
	}
	return total
}

// experimentRung runs the paper sweep set through an in-process
// Manager over a ServeRunner sharded like paper_sweeps' daemon, timing
// each sweep and each cell; the manager's own cost is sweep time minus
// the time cells were running. It returns every cell's job body.
func (l *ladder) experimentRung() ([]serve.JobRequest, error) {
	svc, err := serve.New(l.proc, serve.Config{Shards: (&sweepWorkload{}).topology().shards})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	cr := &cellRunner{inner: experiment.ServeRunner{Service: svc}}
	mgr, err := experiment.NewManager(cr, experiment.Config{})
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	reps := 2
	if l.e.cfg.small {
		reps = 1
	}
	var cellMS, managerMS []float64
	for _, kind := range sweepKinds {
		var sweepMS []float64
		for r := 0; r < reps; r++ {
			cr.mu.Lock()
			cr.spans = nil
			cr.mu.Unlock()
			req := l.e.tr.newReq()
			sp := l.e.tr.begin(req, 0, "ladder.experiment.sweep."+kind)
			start := time.Now()
			id, err := mgr.Submit(sweepRequest(kind, mix(l.e.cfg.seed, "ladder-sweep-"+kind, r), l.e.cfg.small))
			if err != nil {
				return nil, err
			}
			v, err := mgr.Await(context.Background(), id)
			wall := time.Since(start)
			l.e.tr.end(sp)
			if err != nil {
				return nil, err
			}
			if err := validateSweep(v, kind); err != nil {
				return nil, err
			}
			cr.mu.Lock()
			for _, s := range cr.spans {
				cellMS = append(cellMS, ms(s[1].Sub(s[0])))
			}
			managerMS = append(managerMS, ms(wall-covered(cr.spans)))
			cr.mu.Unlock()
			sweepMS = append(sweepMS, ms(wall))
		}
		l.m["experiment.sweep_ms."+kind] = median(sweepMS)
	}
	l.m["experiment.cell_ms"] = median(cellMS)
	l.m["experiment.manager_ms"] = median(managerMS)
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.jobs, nil
}
