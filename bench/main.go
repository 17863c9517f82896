// Command quditbench is the end-to-end benchmark of quditd. It launches
// the real daemon (built from cmd/quditd) through internal/chaos.Fleet,
// drives one of four paper-derived workloads over loopback HTTP from
// this process with two connections, checks every result, and prints
// each metric by name with its unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh --workload ghz_trajectory --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (set-up time,
// throughput, latency percentiles, peak memory). With --trace 1 the
// workload runs once untraced and once with spans recorded around every
// call, then its jobs are replayed single-threaded down a ladder of
// public entry points (compiled shot, backend, Submit, serve, journal,
// HTTP, coordinator hop, sweep cell); the metrics are then the
// per-layer ones, and the report holds the layers table. See
// bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultRate is small_jobs_journal's fixed arrival rate in jobs per
// second: about half the closed-loop capacity of the workload on a
// 2-core x86-64 host (see README.md).
const defaultRate = 200

// config is one invocation's settings. Warm-up, cold-start count, rate
// and the small (smoke-test) sizes are fixed for the command line; tests
// set them directly.
type config struct {
	root     string // repository root holding cmd/quditd
	bin      string // quditd binary
	work     string // working directory of this invocation
	seed     int64
	window   time.Duration
	warmup   time.Duration
	setups   int
	trace    bool
	small    bool
	rate     float64
	spans    string
	out      string
	workload string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits and perLayerUnits give every metric's unit.
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"ops_per_s":      "ops/s",
	"latency_p50_ms": "ms",
	"latency_p75_ms": "ms",
	"peak_rss_mb":    "MiB",
}

var perLayerUnits = map[string]string{
	"circuit.shot_us":              "us",
	"circuit.shot_allocs":          "allocs",
	"circuit.compile_ms":           "ms",
	"core.transpile_ms":            "ms",
	"core.backend_ms":              "ms",
	"core.backend_allocs":          "allocs",
	"core.submit_ms":               "ms",
	"core.submit_allocs":           "allocs",
	"core.result_ms":               "ms",
	"core.plan_cache_hit_ratio":    "ratio",
	"serve.enqueue_await_ms":       "ms",
	"serve.queue_ms":               "ms",
	"serve.cache_hit_us":           "us",
	"serve.cache_hit_ratio":        "ratio",
	"serve.http_ms":                "ms",
	"serve.sse_terminal_ms":        "ms",
	"journal.append_us":            "us",
	"journal.appends_per_op":       "count",
	"journal.bytes_per_op":         "bytes",
	"cluster.hop_ms":               "ms",
	"cluster.checkpoint_bytes":     "bytes",
	"experiment.sweep_ms.rb":       "ms",
	"experiment.sweep_ms.qaoa":     "ms",
	"experiment.sweep_ms.sqed":     "ms",
	"experiment.sweep_ms.qrc":      "ms",
	"experiment.cell_ms":           "ms",
	"experiment.manager_ms":        "ms",
	"process.server_cpu_ms_per_op": "ms",
	"process.server_rss_mb":        "MiB",
	"loadgen.late_p90_ms":          "ms",
	"loadgen.inflight_max":         "count",
	"loadgen.client_cpu_ms":        "ms",
	"ladder.unattributed_pct":      "%",
	"trace.overhead_pct":           "%",
}

// result is everything one workload run reports.
type result struct {
	Workload   string             `json:"workload"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Valid      bool               `json:"valid"`
	Metrics    map[string]metric  `json:"metrics"`
	SetupRunsS []float64          `json:"setup_runs_s,omitempty"`
	Window     windowStats        `json:"window"`
	Untraced   *windowStats       `json:"untraced_window,omitempty"`
	Layers     []layerRow         `json:"layers,omitempty"`
	Ladder     *ladderSummary     `json:"ladder,omitempty"`
	SpanSelfMS map[string]float64 `json:"span_self_ms,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses flags, runs the requested workloads, and returns the exit
// code: 0 only when every check passed.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	runtime.GOMAXPROCS(clientsPerWorkload)
	if n := runtime.NumCPU(); n < clientsPerWorkload {
		fmt.Fprintf(stderr, "quditbench: %d load clients need at least %d CPUs, have %d\n", clientsPerWorkload, clientsPerWorkload, n)
		return 2
	}
	if err := prepare(cfg); err != nil {
		fmt.Fprintf(stderr, "quditbench: %v\n", err)
		return 1
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	prov := provenance(cfg)
	fmt.Fprintf(stdout, "provenance %s\n", mustJSON(prov))

	var results []*result
	for _, name := range names {
		res, err := runWorkload(cfg, name)
		if err != nil {
			fmt.Fprintf(stderr, "quditbench: %s: %v (daemon logs in %s)\n", name, err, cfg.work)
			return 1
		}
		printResult(stdout, res)
		results = append(results, res)
	}
	if err := writeReport(cfg, prov, results); err != nil {
		fmt.Fprintf(stderr, "quditbench: %v\n", err)
		return 1
	}
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range results {
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(results) > 1 {
				k = r.Workload + "." + k
			}
			final.Metrics[k] = v
		}
	}
	fmt.Fprintf(stdout, "%s\n", mustJSON(final))
	if !final.Correct {
		return 1
	}
	os.RemoveAll(cfg.work)
	return 0
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	cfg := &config{warmup: 3 * time.Second, setups: 5, rate: defaultRate}
	fs := flag.NewFlagSet("quditbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input of the run derives from")
	seconds := fs.Float64("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "repository root holding cmd/quditd")
	fs.StringVar(&cfg.out, "out", "", "report file (default <root>/.bench_build/report-<workload>-seed<N>-trace<T>.json)")
	fs.StringVar(&cfg.spans, "spans", "", "span file of a traced run (default <root>/.bench_build/spans-<workload>-seed<N>.json)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "quditbench: -trace must be 0 or 1")
		return nil, fmt.Errorf("bad -trace %d", *trace)
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "quditbench: -seconds must be positive")
		return nil, fmt.Errorf("bad -seconds %g", *seconds)
	}
	if cfg.workload != "all" {
		if _, err := newWorkload(cfg.workload, cfg); err != nil {
			fmt.Fprintf(stderr, "quditbench: %v\n", err)
			return nil, err
		}
	}
	cfg.trace = *trace == 1
	cfg.window = time.Duration(*seconds * float64(time.Second))
	if cfg.trace {
		cfg.setups = 1 // set-up time is an end-to-end metric; the traced run skips repeating it
	}
	return cfg, nil
}

// prepare resolves paths and builds quditd once, before anything is
// timed.
func prepare(cfg *config) error {
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return err
	}
	cfg.root = root
	build := filepath.Join(root, ".bench_build")
	if cfg.work, err = filepath.Abs(filepath.Join(build, fmt.Sprintf("work-%d", os.Getpid()))); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	tag := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
	if cfg.out == "" {
		cfg.out = filepath.Join(build, fmt.Sprintf("report-%s-trace%d.json", tag, btoi(cfg.trace)))
	}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(build, "spans-"+tag+".json")
	}
	cfg.bin = filepath.Join(build, "quditd")
	cmd := exec.Command("go", "build", "-o", cfg.bin, "./cmd/quditd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building quditd: %v\n%s", err, out)
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runWorkload measures one workload: the median of several cold starts,
// a warm-up, then either the measured window (end-to-end metrics) or an
// untraced and a traced half-window followed by the ladder (per-layer
// metrics). Outputs are checked in both modes.
func runWorkload(cfg *config, name string) (*result, error) {
	w, err := newWorkload(name, cfg)
	if err != nil {
		return nil, err
	}
	g := &gauge{}
	e := &env{cfg: cfg}
	for k := range e.c {
		e.c[k] = newClient(g)
		defer e.c[k].close()
	}
	res := &result{Workload: name, Metrics: map[string]metric{}}

	for k := 0; k < cfg.setups; k++ {
		if e.dep != nil {
			e.dep.close()
		}
		start := time.Now()
		e.dep, err = launch(cfg.bin, filepath.Join(cfg.work, fmt.Sprintf("%s-start%d", name, k)), w.topology(), cfg.seed, e.c[0])
		if err != nil {
			return nil, err
		}
		if err := w.setup(e); err != nil {
			e.dep.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.SetupRunsS = append(res.SetupRunsS, time.Since(start).Seconds())
	}
	defer e.dep.close()

	var recs []*recorder
	phase := func(dur time.Duration) (*recorder, time.Time) {
		rec := &recorder{}
		recs = append(recs, rec)
		start := time.Now()
		w.drive(e, rec, start, dur)
		return rec, start
	}
	phase(cfg.warmup)

	if !cfg.trace {
		rec, start := phase(cfg.window)
		res.Window = summarize(start, rec.samples)
		use, err := e.dep.usage()
		if err != nil {
			return nil, err
		}
		set := func(k string, v float64) { res.Metrics[k] = metric{v, endToEndUnits[k]} }
		set("setup_s", median(res.SetupRunsS))
		set("ops_per_s", res.Window.OpsPerS)
		set("latency_p50_ms", res.Window.P50MS)
		set("latency_p75_ms", res.Window.P75MS)
		set("peak_rss_mb", use.hwmMB)
		res.Valid = res.Window.LateP90MS <= 1 && g.max.Load() <= clientsPerWorkload
	} else {
		if err := tracedRun(e, w, res, phase); err != nil {
			return nil, err
		}
		res.Valid = res.Metrics["loadgen.late_p90_ms"].Value <= 1 && g.max.Load() <= clientsPerWorkload
	}

	bad, checkErr := w.check(e)
	for _, rec := range recs {
		res.Attempted += len(rec.samples) + rec.failed
		res.Failed += rec.failed
		res.Errors = append(res.Errors, rec.errs...)
	}
	res.Failed += bad
	if bad > 0 {
		res.Errors = append(res.Errors, fmt.Sprintf("%d results differ from the reference", bad))
	}
	if checkErr != nil {
		res.Errors = append(res.Errors, "check: "+checkErr.Error())
	}
	res.Correct = res.Failed == 0 && checkErr == nil
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Correct = false
			res.Errors = append(res.Errors, fmt.Sprintf("metric %s is not finite", k))
		}
	}
	return res, nil
}

// tracedRun measures an untraced and a traced half-window (their
// difference is the tracing overhead), samples daemon counters and
// /proc around the traced one, then replays the ladder under the same
// tracer.
func tracedRun(e *env, w workload, res *result, phase func(time.Duration) (*recorder, time.Time)) error {
	half := e.cfg.window / 2
	rec, start := phase(half)
	untraced := summarize(start, rec.samples)
	res.Untraced = &untraced

	e.tr = newTracer()
	e.c[0].g.max.Store(e.c[0].g.cur.Load())
	st0, err := e.c[0].simStats(e.dep)
	if err != nil {
		return err
	}
	use0, err := e.dep.usage()
	if err != nil {
		return err
	}
	cpu0 := selfCPU()
	stopCkpt := watchSize(e.dep.ckpt)
	rec, start = phase(half)
	ckpt := stopCkpt()
	cpu1 := selfCPU()
	use1, err := e.dep.usage()
	if err != nil {
		return err
	}
	st1, err := e.c[0].simStats(e.dep)
	if err != nil {
		return err
	}
	res.Window = summarize(start, rec.samples)
	ops := math.Max(float64(res.Window.Ops), 1)
	inflight := float64(e.c[0].g.max.Load())

	lm, rows, sum, err := runLadder(e, w)
	if err != nil {
		return err
	}
	res.Layers, res.Ladder = rows, &sum
	lm["cluster.checkpoint_bytes"] = math.Max(lm["cluster.checkpoint_bytes"], ckpt)
	lm["core.plan_cache_hit_ratio"] = ratio(st1.PlanCacheHits-st0.PlanCacheHits, st1.PlanCacheMisses-st0.PlanCacheMisses)
	lm["serve.cache_hit_ratio"] = ratio(st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses)
	lm["process.server_cpu_ms_per_op"] = (use1.cpuMS - use0.cpuMS) / ops
	lm["process.server_rss_mb"] = use1.rssMB
	lm["loadgen.late_p90_ms"] = res.Window.LateP90MS
	lm["loadgen.inflight_max"] = inflight
	lm["loadgen.client_cpu_ms"] = (cpu1 - cpu0) / ops
	lm["trace.overhead_pct"] = (res.Window.P50MS - untraced.P50MS) / untraced.P50MS * 100
	if st1.Requeued != 0 {
		rec.fail("coordinator requeued %d jobs", st1.Requeued)
	}
	for k, v := range lm {
		res.Metrics[k] = metric{v, perLayerUnits[k]}
	}
	for k := range perLayerUnits {
		if _, ok := res.Metrics[k]; !ok {
			return fmt.Errorf("per-layer metric %s was not measured", k)
		}
	}
	res.SpanSelfMS = e.tr.selfTimes()
	return e.tr.write(e.cfg.spans, res.Workload, e.cfg.seed)
}

// ratio is hits/(hits+misses), zero when nothing was looked up.
func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// selfCPU is this process's user+system CPU time in ms.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// printResult writes one workload's metrics, one per line, and its
// layers table.
func printResult(out io.Writer, r *result) {
	fmt.Fprintf(out, "workload %s: correct=%v valid=%v attempted=%d failed=%d ops=%d highest_percentile=p%g (%d samples)\n",
		r.Workload, r.Correct, r.Valid, r.Attempted, r.Failed, r.Window.Ops, r.Window.TailPct, r.Window.Ops)
	for _, e := range r.Errors {
		fmt.Fprintf(out, "  error: %s\n", e)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-30s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	if r.Ladder == nil {
		return
	}
	fmt.Fprintf(out, "  layers (single client; exclusive = rung minus rung below)\n")
	for _, row := range r.Layers {
		fmt.Fprintf(out, "    %-16s rung %10.4f ms  exclusive %10.4f ms  on_path=%v\n", row.Layer, row.RungMS, row.ExclusiveMS, row.OnPath)
	}
	fmt.Fprintf(out, "    sum of on-path exclusive %.4f ms vs 1-client end-to-end %.4f ms: unattributed %.2f%% (tolerance %g%%, reconciled=%v)\n",
		r.Ladder.SumMS, r.Ladder.E2EMS, r.Ladder.UnattributedPct, r.Ladder.TolerancePct, r.Ladder.Reconciled)
	if r.Untraced != nil {
		fmt.Fprintf(out, "    tracing overhead on latency_p50: untraced %.4f ms, traced %.4f ms\n", r.Untraced.P50MS, r.Window.P50MS)
	}
}

// provenanceInfo records where and how a run was measured.
type provenanceInfo struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	WorkdirFS  string  `json:"workdir_fs"`
	Seed       int64   `json:"seed"`
	WarmupS    float64 `json:"warmup_s"`
	WindowS    float64 `json:"window_s"`
	Clients    int     `json:"clients"`
	RatePerS   float64 `json:"small_jobs_rate_per_s"`
	Trace      bool    `json:"trace"`
}

func provenance(cfg *config) provenanceInfo {
	p := provenanceInfo{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		WorkdirFS:  fsType(cfg.work),
		Seed:       cfg.seed,
		WarmupS:    cfg.warmup.Seconds(),
		WindowS:    cfg.window.Seconds(),
		Clients:    clientsPerWorkload,
		RatePerS:   cfg.rate,
		Trace:      cfg.trace,
	}
	git := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD")
	// Stop at the root: a checkout that is not a repository must not
	// report the commit of some repository around it.
	git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cfg.root))
	if out, err := git.Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// fsType names the filesystem holding dir: fsync cost, and so the
// journal's, depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// writeReport saves provenance and every result as one JSON document.
func writeReport(cfg *config, prov provenanceInfo, results []*result) error {
	data, err := json.MarshalIndent(struct {
		Provenance provenanceInfo `json:"provenance"`
		Results    []*result      `json:"results"`
	}{prov, results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.out, data, 0o644)
}
