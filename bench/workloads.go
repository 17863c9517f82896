package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quditkit/internal/core"
	"quditkit/internal/experiment"
	"quditkit/internal/serve"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"ghz_trajectory", "small_jobs_journal", "fleet_dispatch", "paper_sweeps"}

// clientsPerWorkload is how many load clients, one HTTP connection each,
// a workload may use; ghz_trajectory uses one.
const clientsPerWorkload = 2

// checkJobs is how many of a run's first jobs are compared against an
// independent reference after the window.
const checkJobs = 16

// workload is one traffic mix the benchmark drives against quditd.
type workload interface {
	// topology is the daemon layout the workload runs against.
	topology() topology
	// setup issues the first operation on each distinct circuit, which
	// fills the daemons' plan caches (and, for small_jobs_journal,
	// records the first response of every repeated body).
	setup(e *env) error
	// drive generates load for every operation due in [start,
	// start+dur) and returns once all of them have completed, recording
	// one sample per successful operation.
	drive(e *env, rec *recorder, start time.Time, dur time.Duration)
	// check compares outputs collected during drive with an independent
	// reference; it returns the number of mismatched operations.
	check(e *env) (int, error)
	// templates returns the workload's computed jobs for the ladder;
	// cells are the job bodies of the in-process sweep rung.
	templates(cells []serve.JobRequest) []serve.JobRequest
}

// env is what a workload drives: the running deployment, the two load
// clients, and the tracer of a traced window (nil otherwise).
type env struct {
	cfg *config
	dep *deployment
	c   [clientsPerWorkload]*client
	tr  *tracer
}

// recorder collects the samples and failures of one phase.
type recorder struct {
	mu      sync.Mutex
	samples []sample
	failed  int
	errs    []string
}

func (r *recorder) add(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

// fail counts a failed or refused operation and keeps the first few
// messages for the report.
func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// newWorkload builds the named workload with inputs derived from the
// configured seed.
func newWorkload(name string, cfg *config) (workload, error) {
	switch name {
	case "ghz_trajectory":
		shots := 512
		if cfg.small {
			shots = 64
		}
		return newGHZ(cfg.seed, shots), nil
	case "small_jobs_journal":
		return newSmallJobs(cfg.seed, cfg.rate), nil
	case "fleet_dispatch":
		shots, burst := 128, 16
		if cfg.small {
			shots, burst = 32, 4
		}
		return &fleetWorkload{seed: cfg.seed, shots: shots, burst: burst, first: map[int64][]byte{}}, nil
	case "paper_sweeps":
		return &sweepWorkload{seed: cfg.seed, small: cfg.small}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s or all)", name, strings.Join(workloadNames, ", "))
}

// mix derives a deterministic non-negative seed for item i of a named
// stream (splitmix64 over the run seed and the stream's FNV hash), so
// every input of a run is a pure function of -seed.
func mix(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	z := (uint64(seed) ^ h.Sum64()) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & math.MaxInt64)
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only benchmark-built values are marshaled
	}
	return data
}

// ghzCircuit is an n-qutrit GHZ preparation: a DFT on wire 0, then a
// CSUM from it to every other wire.
func ghzCircuit(n int) serve.CircuitSpec {
	c := serve.CircuitSpec{Dims: make([]int, n), Ops: []serve.OpSpec{{Gate: "dft", Targets: []int{0}}}}
	for i := range c.Dims {
		c.Dims[i] = 3
		if i != 0 {
			c.Ops = append(c.Ops, serve.OpSpec{Gate: "csum", Targets: []int{0, i}})
		}
	}
	return c
}

// noisyJob is a trajectory job under the device-derived qutrit noise.
func noisyJob(c serve.CircuitSpec, shots int, seed int64) serve.JobRequest {
	return serve.JobRequest{Circuit: c, Backend: "trajectory", Shots: shots, Seed: &seed, DeriveNoiseDim: 3}
}

// jobReply is the subset of a job view (or terminal SSE event) the
// load clients read.
type jobReply struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// acceptedJob parses a job response, failing on transport errors and
// non-2xx statuses.
func acceptedJob(code int, data []byte, err error) (jobReply, error) {
	var r jobReply
	if err != nil {
		return r, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return r, fmt.Errorf("status %d: %s", code, bytes.TrimSpace(data))
	}
	return r, json.Unmarshal(data, &r)
}

// doneJob is acceptedJob for a job that must have settled done.
func doneJob(code int, data []byte, err error) (jobReply, error) {
	r, err := acceptedJob(code, data, err)
	if err == nil && (r.State != serve.Done.String() || len(r.Result) == 0) {
		err = fmt.Errorf("job %s settled %q: %s", r.ID, r.State, r.Error)
	}
	return r, err
}

// terminalEvent parses an SSE stream and returns its last event, which
// must be the job's done event.
func terminalEvent(code int, data []byte, err error) (jobReply, error) {
	if err != nil {
		return jobReply{}, err
	}
	if code != http.StatusOK {
		return jobReply{}, fmt.Errorf("events: status %d: %s", code, bytes.TrimSpace(data))
	}
	i := bytes.LastIndex(data, []byte("\ndata: "))
	if i < 0 {
		return jobReply{}, errors.New("events: stream carried no data")
	}
	line, _, _ := bytes.Cut(data[i+len("\ndata: "):], []byte("\n"))
	return doneJob(http.StatusOK, line, nil)
}

// countsOf extracts the counts of a result view as raw JSON.
func countsOf(result []byte) ([]byte, error) {
	var r struct {
		Counts json.RawMessage `json:"counts"`
	}
	if err := json.Unmarshal(result, &r); err != nil {
		return nil, err
	}
	return r.Counts, nil
}

// closedLoop runs the first n clients in a loop until the deadline: each
// op is due when the client's previous op completed (the first at start).
func closedLoop(e *env, n int, start time.Time, dur time.Duration, op func(k int, due time.Time)) {
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for k := range e.c[:n] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for due := start; due.Before(deadline); due = time.Now() {
				op(k, due)
			}
		}()
	}
	wg.Wait()
}

// ---- ghz_trajectory ----

// ghzWorkload is one closed-loop client submitting the tracked noisy
// 4-qutrit GHZ job with ?wait=1 to a standalone daemon. Every job has
// its own seed, so the result cache never answers.
//
// One client keeps one job in flight, so the daemon simulates on one
// core and answers on the other. With two clients, one per shard, both
// cores simulate and the tail swings with how the two jobs' timings
// align: over ten runs, p75 spread by 28% of its median.
type ghzWorkload struct {
	seed  int64
	shots int
	next  int64
	first map[int64][]byte // job index → result view, for the first checkJobs
}

func newGHZ(seed int64, shots int) *ghzWorkload {
	return &ghzWorkload{seed: seed, shots: shots, first: map[int64][]byte{}}
}

// topology keeps 1024 settled jobs instead of quditd's 4096. A settled
// GHZ job holds about 60 KiB, so the daemon's memory grows until the
// table is full; one client fills 1024 entries within the window, 4096
// only after it, and peak memory would then follow throughput.
func (w *ghzWorkload) topology() topology { return topology{retain: 1024} }

func (w *ghzWorkload) job(stream string, i int64) serve.JobRequest {
	return noisyJob(ghzCircuit(4), w.shots, mix(w.seed, stream, int(i)))
}

func (w *ghzWorkload) setup(e *env) error {
	_, err := doneJob(e.c[0].do(http.MethodPost, e.dep.front().url()+"/v1/jobs?wait=1", "",
		mustJSON(w.job("ghz-setup", 0))))
	return err
}

func (w *ghzWorkload) drive(e *env, rec *recorder, start time.Time, dur time.Duration) {
	url := e.dep.front().url() + "/v1/jobs?wait=1"
	closedLoop(e, 1, start, dur, func(k int, due time.Time) {
		i := w.next
		w.next++
		body := mustJSON(w.job("ghz", i))
		req := e.tr.newReq()
		root := e.tr.begin(req, 0, "op.ghz_trajectory")
		sp := e.tr.begin(req, root, "http.post_wait")
		sent := time.Now()
		code, data, err := e.c[k].do(http.MethodPost, url, "", body)
		done := time.Now()
		e.tr.end(sp)
		e.tr.end(root)
		r, err := doneJob(code, data, err)
		if err != nil {
			rec.fail("ghz job %d: %v", i, err)
			return
		}
		if i < checkJobs {
			w.first[i] = r.Result
		}
		rec.add(sample{due: due, sent: sent, done: done})
	})
}

// check recomputes the first jobs in-process on the daemon's processor
// and requires byte-identical counts.
func (w *ghzWorkload) check(e *env) (int, error) {
	proc, err := core.NewCompactProcessor(2, 2, e.cfg.seed)
	if err != nil {
		return 0, err
	}
	if len(w.first) == 0 {
		return 0, errors.New("ghz_trajectory: no job completed to check")
	}
	bad := 0
	for i, res := range w.first {
		req := w.job("ghz", i)
		circ, err := serve.BuildCircuit(req.Circuit)
		if err != nil {
			return bad, err
		}
		opts, err := req.Options(proc)
		if err != nil {
			return bad, err
		}
		ref, err := proc.SubmitOne(circ, opts...)
		if err != nil {
			return bad, err
		}
		got, err := countsOf(res)
		if err != nil || !bytes.Equal(got, mustJSON(ref.Counts)) {
			bad++
		}
	}
	return bad, nil
}

func (w *ghzWorkload) templates([]serve.JobRequest) []serve.JobRequest {
	return []serve.JobRequest{w.job("ladder-template", 0)}
}

// ---- small_jobs_journal ----

// smallBodies is how many distinct bodies the repeated half of
// small_jobs_journal draws from.
const smallBodies = 32

// smallJobs is an open loop of tiny statevector jobs at a fixed Poisson
// rate against a journaled, two-tenant daemon. Connection 0 submits
// asynchronously; connection 1 follows each job's SSE stream in
// submission order. Half the jobs repeat one of smallBodies bodies
// (result-cache reads), half carry a fresh seed (computed, journaled
// writes).
type smallJobs struct {
	seed     int64
	rate     float64
	circuits []serve.CircuitSpec
	reps     [][]byte // the repeated bodies
	first    [][]byte // first response of each repeated body, from setup
	phase    int
	compared atomic.Int64
}

func newSmallJobs(seed int64, rate float64) *smallJobs {
	w := &smallJobs{seed: seed, rate: rate, first: make([][]byte, smallBodies)}
	for k := 0; k < smallBodies; k++ {
		w.circuits = append(w.circuits, randomCircuit(rand.New(rand.NewSource(mix(seed, "small-circuit", k)))))
		w.reps = append(w.reps, mustJSON(w.job(k, mix(seed, "small-repeat", k))))
	}
	return w
}

// randomCircuit draws a 3-qutrit circuit: a DFT layer, then a few
// random one- and two-qutrit gates.
func randomCircuit(rng *rand.Rand) serve.CircuitSpec {
	c := serve.CircuitSpec{Dims: []int{3, 3, 3}}
	for q := 0; q < 3; q++ {
		c.Ops = append(c.Ops, serve.OpSpec{Gate: "dft", Targets: []int{q}})
	}
	for n := 0; n < 6; n++ {
		a := rng.Intn(3)
		b := (a + 1 + rng.Intn(2)) % 3
		switch rng.Intn(4) {
		case 0:
			c.Ops = append(c.Ops, serve.OpSpec{Gate: "xpow", Targets: []int{a}, K: 1 + rng.Intn(2)})
		case 1:
			c.Ops = append(c.Ops, serve.OpSpec{Gate: "phase", Targets: []int{a}, Level: rng.Intn(3), Phi: 2 * math.Pi * rng.Float64()})
		case 2:
			c.Ops = append(c.Ops, serve.OpSpec{Gate: "csum", Targets: []int{a, b}})
		default:
			c.Ops = append(c.Ops, serve.OpSpec{Gate: "cz", Targets: []int{a, b}})
		}
	}
	return c
}

func (w *smallJobs) job(circuit int, seed int64) serve.JobRequest {
	return serve.JobRequest{Circuit: w.circuits[circuit], Shots: 64, Seed: &seed}
}

func (w *smallJobs) topology() topology { return topology{journal: true, tenants: true} }

func (w *smallJobs) setup(e *env) error {
	for k, body := range w.reps {
		r, err := doneJob(e.c[0].do(http.MethodPost, e.dep.front().url()+"/v1/jobs?wait=1",
			tenantKeys[k%len(tenantKeys)], body))
		if err != nil {
			return fmt.Errorf("repeated body %d: %w", k, err)
		}
		w.first[k] = r.Result
	}
	return nil
}

// arrival is one scheduled submission of the open loop.
type arrival struct {
	at   time.Duration // offset from the phase start
	rep  int           // repeated-body index, or -1 for a fresh body
	body []byte
	key  string
}

// schedule lays out one phase's arrivals: round(rate·dur) arrival times
// drawn uniformly over the phase (a Poisson process conditioned on its
// count, so every seed offers the same load), each a repeated or a
// fresh body with equal odds, tenants alternating.
func (w *smallJobs) schedule(phase int, dur time.Duration) []arrival {
	rng := rand.New(rand.NewSource(mix(w.seed, "small-arrivals", phase)))
	n := int(math.Round(w.rate * dur.Seconds()))
	ats := make([]time.Duration, n)
	for i := range ats {
		ats[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
	plan := make([]arrival, n)
	for i := range plan {
		a := arrival{at: ats[i], rep: -1, key: tenantKeys[i%len(tenantKeys)]}
		if rng.Intn(2) == 0 {
			a.rep = rng.Intn(smallBodies)
			a.body = w.reps[a.rep]
		} else {
			a.body = mustJSON(w.job(rng.Intn(smallBodies), mix(w.seed, fmt.Sprintf("small-fresh-%d", phase), i)))
		}
		plan[i] = a
	}
	return plan
}

func (w *smallJobs) drive(e *env, rec *recorder, start time.Time, dur time.Duration) {
	plan := w.schedule(w.phase, dur)
	w.phase++
	base := e.dep.front().url()
	type posted struct {
		a         arrival
		id        string
		due, sent time.Time
		req, root int64
	}
	// Sized to the number of sends, so the submitter never blocks on a
	// slow stream reader.
	ch := make(chan posted, len(plan))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := range ch {
			sp := e.tr.begin(p.req, p.root, "http.sse_events")
			code, data, err := e.c[1].do(http.MethodGet, base+"/v1/jobs/"+p.id+"/events", p.a.key, nil)
			done := time.Now()
			e.tr.end(sp)
			e.tr.end(p.root)
			ev, err := terminalEvent(code, data, err)
			if err != nil {
				rec.fail("job %s: %v", p.id, err)
				continue
			}
			class := "fresh"
			if p.a.rep >= 0 {
				class = "repeat"
				w.compared.Add(1)
				if !bytes.Equal(ev.Result, w.first[p.a.rep]) {
					rec.fail("job %s: repeated body %d answered different bytes", p.id, p.a.rep)
					continue
				}
			}
			rec.add(sample{due: p.due, sent: p.sent, done: done, class: class})
		}
	}()
	for _, a := range plan {
		due := start.Add(a.at)
		waitUntil(due)
		req := e.tr.newReq()
		root := e.tr.begin(req, 0, "op.small_jobs_journal")
		sp := e.tr.begin(req, root, "http.post_async")
		sent := time.Now()
		code, data, err := e.c[0].do(http.MethodPost, base+"/v1/jobs", a.key, a.body)
		e.tr.end(sp)
		r, err := acceptedJob(code, data, err)
		if err != nil {
			e.tr.end(root)
			rec.fail("submit: %v", err)
			continue
		}
		ch <- posted{a: a, id: r.ID, due: due, sent: sent, req: req, root: root}
	}
	close(ch)
	wg.Wait()
}

// check only confirms that repeated bodies were compared: mismatches
// were counted as failed operations while driving.
func (w *smallJobs) check(*env) (int, error) {
	if w.compared.Load() == 0 {
		return 0, errors.New("small_jobs_journal: no repeated body was compared")
	}
	return 0, nil
}

func (w *smallJobs) templates([]serve.JobRequest) []serve.JobRequest {
	out := make([]serve.JobRequest, smallBodies)
	for k := range out {
		out[k] = w.job(k, 0)
	}
	return out
}

// spinMargin is how long before an arrival the open-loop generator stops
// sleeping and spins: a timer wake-up on a small VM overshoots by about a
// millisecond, which would make the generator itself run late.
const spinMargin = 1500 * time.Microsecond

// waitUntil returns at due, or at once if due has passed.
func waitUntil(due time.Time) {
	if d := time.Until(due) - spinMargin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// ---- fleet_dispatch ----

// fleetWorkload drives a coordinator with two workers: each client
// submits a burst of async jobs, then long-polls each with ?wait=1 in
// order, so up to two bursts of jobs sit unsettled at the coordinator.
type fleetWorkload struct {
	seed  int64
	shots int
	burst int
	next  atomic.Int64

	mu    sync.Mutex
	first map[int64][]byte // job index → result view, for the first checkJobs
}

// topology gives each worker one shard, so the fleet simulates on two
// cores and does not oversubscribe them.
func (w *fleetWorkload) topology() topology { return topology{fleet: true, journal: true, shards: 1} }

func (w *fleetWorkload) job(stream string, i int64) serve.JobRequest {
	return noisyJob(ghzCircuit(3), w.shots, mix(w.seed, stream, int(i)))
}

// setup sends a few jobs through the coordinator so that, with high
// probability, both workers compile the circuit's plan.
func (w *fleetWorkload) setup(e *env) error {
	for i := int64(0); i < 4; i++ {
		_, err := doneJob(e.c[0].do(http.MethodPost, e.dep.front().url()+"/v1/jobs?wait=1", "",
			mustJSON(w.job("fleet-setup", i))))
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *fleetWorkload) drive(e *env, rec *recorder, start time.Time, dur time.Duration) {
	base := e.dep.front().url()
	type posted struct {
		i         int64
		id        string
		req, root int64
	}
	closedLoop(e, clientsPerWorkload, start, dur, func(k int, due time.Time) {
		var batch []posted
		var first time.Time // when the burst began sending: the generator's lateness
		for j := 0; j < w.burst; j++ {
			i := w.next.Add(1) - 1
			req := e.tr.newReq()
			root := e.tr.begin(req, 0, "op.fleet_dispatch")
			sp := e.tr.begin(req, root, "http.post_async")
			sent := time.Now()
			if j == 0 {
				first = sent
			}
			code, data, err := e.c[k].do(http.MethodPost, base+"/v1/jobs", "", mustJSON(w.job("fleet", i)))
			e.tr.end(sp)
			r, err := acceptedJob(code, data, err)
			if err != nil {
				e.tr.end(root)
				rec.fail("fleet submit %d: %v", i, err)
				continue
			}
			batch = append(batch, posted{i: i, id: r.ID, req: req, root: root})
		}
		for _, p := range batch {
			sp := e.tr.begin(p.req, p.root, "http.get_wait")
			code, data, err := e.c[k].do(http.MethodGet, base+"/v1/jobs/"+p.id+"?wait=1", "", nil)
			done := time.Now()
			e.tr.end(sp)
			e.tr.end(p.root)
			r, err := doneJob(code, data, err)
			if err != nil {
				rec.fail("fleet job %d: %v", p.i, err)
				continue
			}
			if p.i < checkJobs {
				w.mu.Lock()
				w.first[p.i] = r.Result
				w.mu.Unlock()
			}
			rec.add(sample{due: due, sent: first, done: done})
		}
	})
}

// check replays the first jobs on a fresh standalone daemon with the
// same seed and requires byte-identical counts.
func (w *fleetWorkload) check(e *env) (int, error) {
	if len(w.first) == 0 {
		return 0, errors.New("fleet_dispatch: no job completed to check")
	}
	ref, err := launch(e.cfg.bin, filepath.Join(e.cfg.work, "fleet-check"), topology{}, e.cfg.seed, e.c[0])
	if err != nil {
		return 0, err
	}
	defer ref.close()
	bad := 0
	for i, res := range w.first {
		r, err := doneJob(e.c[0].do(http.MethodPost, ref.front().url()+"/v1/jobs?wait=1", "",
			mustJSON(w.job("fleet", i))))
		if err != nil {
			return bad, err
		}
		got, err1 := countsOf(res)
		want, err2 := countsOf(r.Result)
		if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
			bad++
		}
	}
	return bad, nil
}

func (w *fleetWorkload) templates([]serve.JobRequest) []serve.JobRequest {
	return []serve.JobRequest{w.job("ladder-template", 0)}
}

// ---- paper_sweeps ----

// sweepKinds is the rotation of paper_sweeps: device characterization,
// optimization, simulation, machine learning.
var sweepKinds = []string{experiment.KindRB, experiment.KindQAOA, experiment.KindSQED, experiment.KindQRC}

// rbDecayBand bounds the fitted RB decay rate under the benchmark's
// depol1 = 0.02 noise: survival must decay, but slowly.
var rbDecayBand = [2]float64{0.90, 0.995}

// sweepWorkload is two closed-loop clients each posting the paper's
// application sweeps with ?wait=1 to a journaled standalone daemon,
// cycling RB, QAOA, sQED and QRC, each with a fresh seed.
type sweepWorkload struct {
	seed  int64
	small bool
	next  atomic.Int64
}

// topology runs the sweeps on one queue shard. With two, the daemon's
// shards, its HTTP and journal goroutines and the load clients
// oversubscribe two cores, and throughput swings with how the host
// schedules them; one shard leaves the second core for the rest.
func (w *sweepWorkload) topology() topology { return topology{journal: true, shards: 1} }

// sweepRequest sizes each kind so that, under this workload's load, its
// median over HTTP is 100–200 ms on a 2-core host and close to the other
// kinds', which keeps the latency percentiles off the edge between two
// kinds (small mode shrinks every grid for smoke tests).
func sweepRequest(kind string, seed int64, small bool) experiment.SweepRequest {
	req := experiment.SweepRequest{Kind: kind, Seed: seed, Shots: 1024}
	switch kind {
	case experiment.KindRB:
		req.Backend, req.Shots, req.Noise = "trajectory", 256, &serve.NoiseSpec{Depol1: 0.02}
		req.RB = &experiment.RBSpec{Dim: 3, Lengths: []int{4, 10, 20, 28}, Sequences: 3}
		if small {
			req.RB = &experiment.RBSpec{Dim: 3, Lengths: []int{2, 8}, Sequences: 2}
		}
	case experiment.KindQAOA:
		req.QAOA = &experiment.QAOASpec{Nodes: 4, Chords: 2, Colors: 3, Layers: 6,
			Gammas: experiment.Axis{From: 0.2, To: 1.4, N: 7}, Betas: experiment.Axis{From: 0.2, To: 1.1, N: 7}}
		if small {
			req.QAOA.Gammas.N, req.QAOA.Betas.N = 2, 2
		}
	case experiment.KindSQED:
		req.SQED = &experiment.SQEDSpec{Sites: 4, Ell: 1, G2: 1, X: 0.5, Dt: 0.1, Steps: 48}
		if small {
			req.SQED.Sites, req.SQED.Steps = 2, 8
		}
	case experiment.KindQRC:
		req.QRC = &experiment.QRCSpec{Task: "narma2", Length: 32, Train: 18, Qudits: 3, Window: 3}
		if small {
			req.QRC = &experiment.QRCSpec{Task: "narma2", Length: 32, Train: 12}
		}
	}
	return req
}

// validateSweep checks a settled sweep: completed, every cell done, an
// aggregate of the right kind, and an RB decay rate in its band.
func validateSweep(v experiment.SweepView, kind string) error {
	if v.State != experiment.SweepCompleted || v.FailedCells != 0 || v.DoneCells != v.TotalCells {
		return fmt.Errorf("sweep %s (%s) settled %s with %d/%d done, %d failed", v.ID, kind, v.State, v.DoneCells, v.TotalCells, v.FailedCells)
	}
	a := v.Aggregate
	if a == nil || v.AggregateError != "" {
		return fmt.Errorf("sweep %s (%s): no aggregate: %s", v.ID, kind, v.AggregateError)
	}
	switch kind {
	case experiment.KindRB:
		if a.RB == nil || a.RB.DecayRate < rbDecayBand[0] || a.RB.DecayRate > rbDecayBand[1] {
			return fmt.Errorf("sweep %s: RB decay rate outside [%g, %g]: %+v", v.ID, rbDecayBand[0], rbDecayBand[1], a.RB)
		}
	case experiment.KindQAOA:
		if a.QAOA == nil {
			return fmt.Errorf("sweep %s: missing QAOA aggregate", v.ID)
		}
	case experiment.KindSQED:
		if a.SQED == nil {
			return fmt.Errorf("sweep %s: missing sQED aggregate", v.ID)
		}
	case experiment.KindQRC:
		if a.QRC == nil {
			return fmt.Errorf("sweep %s: missing QRC aggregate", v.ID)
		}
	}
	return nil
}

// postSweep submits one sweep with ?wait=1 and validates the result.
func postSweep(c *client, base string, req experiment.SweepRequest) error {
	code, data, err := c.do(http.MethodPost, base+"/v1/sweeps?wait=1", "", mustJSON(req))
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("sweep status %d: %s", code, bytes.TrimSpace(data))
	}
	var v experiment.SweepView
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	return validateSweep(v, req.Kind)
}

func (w *sweepWorkload) setup(e *env) error {
	for k, kind := range sweepKinds {
		if err := postSweep(e.c[0], e.dep.front().url(), sweepRequest(kind, mix(w.seed, "sweep-setup", k), w.small)); err != nil {
			return err
		}
	}
	return nil
}

func (w *sweepWorkload) drive(e *env, rec *recorder, start time.Time, dur time.Duration) {
	base := e.dep.front().url()
	closedLoop(e, clientsPerWorkload, start, dur, func(k int, due time.Time) {
		i := w.next.Add(1) - 1
		kind := sweepKinds[i%int64(len(sweepKinds))]
		req := e.tr.newReq()
		root := e.tr.begin(req, 0, "op.paper_sweeps")
		sp := e.tr.begin(req, root, "http.sweep_wait."+kind)
		sent := time.Now()
		err := postSweep(e.c[k], base, sweepRequest(kind, mix(w.seed, "sweep", int(i)), w.small))
		done := time.Now()
		e.tr.end(sp)
		e.tr.end(root)
		if err != nil {
			rec.fail("%v", err)
			return
		}
		rec.add(sample{due: due, sent: sent, done: done, class: kind})
	})
}

// check has nothing left to do: every sweep was validated on arrival.
func (w *sweepWorkload) check(*env) (int, error) { return 0, nil }

// templates spreads the ladder over cells of every sweep kind.
func (w *sweepWorkload) templates(cells []serve.JobRequest) []serve.JobRequest {
	const want = 16
	if len(cells) <= want {
		return cells
	}
	out := make([]serve.JobRequest, 0, want)
	for i := 0; i < want; i++ {
		out = append(out, cells[i*len(cells)/want])
	}
	return out
}
