// Command benchdiff guards against benchmark regressions in CI: it
// parses `go test -bench -benchmem` output and compares every tracked
// benchmark against the committed BENCH_*.json baselines, failing when a
// metric regresses past its threshold.
//
// Usage:
//
//	benchdiff [-baseline 'BENCH_*.json'] [-threshold 0.25]
//	          [-ns-threshold X] [-scaling-bench PREFIX]
//	          [-scaling-floor F] [-cores N] [bench-output.txt]
//
// The bench output is read from the named file, or stdin when no file
// is given. Baselines are the per-PR BENCH_N.json reports already
// committed at the repo root: each "benchmarks" entry's "after" block
// carries the reference ns_op / b_op / allocs_op; when several baseline
// files track the same benchmark, the highest-numbered (most recent)
// file wins. Benchmarks present in the output but in no baseline — or
// vice versa — are reported and skipped, never failed: the tracked set
// is exactly the intersection.
//
// Allocation metrics (allocs/op, B/op) are deterministic across
// machines at a fixed GOMAXPROCS, so they get the tight default
// threshold. A benchmark whose goroutine count follows GOMAXPROCS
// allocates per goroutine; run it at the -cpu its baseline was taken
// at, since the -N name suffix is stripped. Wall-clock ns/op
// varies with the host CPU; -ns-threshold loosens only that metric
// (zero means "use -threshold", a negative value skips ns comparison
// entirely).
//
// The scaling gate (-scaling-bench, -scaling-floor) is a same-run
// check, independent of any baseline file: PREFIX names a benchmark
// family whose variants end in a worker count (for example
// "BenchmarkSubmitTrajectories/workers="), and every variant K > 1
// must achieve a parallel efficiency
//
//	eff_K = (ns_1 / ns_K) / min(K, cores)
//
// of at least the floor. Dividing by min(K, cores) rather than K keeps
// the gate honest on hosts with fewer cores than the widest variant:
// oversubscribed workers can't speed anything up and aren't asked to.
// The gate catches the regressions a fixed ns/op threshold can't — a
// change that leaves single-worker time alone but serializes the pool
// (a stray global lock, false sharing in the batch arena) tanks
// efficiency while every absolute number still looks plausible.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// baselineEntry is the reference measurement of one benchmark.
type baselineEntry struct {
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// baselineFile is the subset of a BENCH_N.json report benchdiff reads.
type baselineFile struct {
	Benchmarks map[string]struct {
		After *baselineEntry `json:"after"`
	} `json:"benchmarks"`
}

// measurement is one parsed `go test -bench -benchmem` result line.
type measurement struct {
	NsOp     float64
	BOp      float64
	AllocsOp float64
}

// benchLine matches e.g.
//
//	BenchmarkFoo/sub=1-4  100  12345 ns/op  678 B/op  9 allocs/op
//
// The trailing -N GOMAXPROCS suffix is stripped so names match the
// baseline keys.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	pattern := fs.String("baseline", "BENCH_*.json", "glob of committed baseline reports")
	threshold := fs.Float64("threshold", 0.25, "allowed fractional regression for B/op and allocs/op")
	nsThreshold := fs.Float64("ns-threshold", 0, "allowed fractional regression for ns/op (0 = -threshold, negative skips ns)")
	scalingBench := fs.String("scaling-bench", "", "benchmark name prefix whose variants end in a worker count, e.g. BenchmarkSubmitTrajectories/workers=")
	scalingFloor := fs.Float64("scaling-floor", 0, "minimum parallel efficiency (ns_1/ns_K)/min(K,cores); 0 disables the gate")
	cores := fs.Int("cores", runtime.NumCPU(), "physical parallelism available to the measured run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	nsTol := *nsThreshold
	if nsTol == 0 {
		nsTol = *threshold
	}

	baseline, err := loadBaselines(*pattern)
	if err != nil {
		return err
	}
	if len(baseline) == 0 {
		return fmt.Errorf("no baseline benchmarks found under %q", *pattern)
	}

	var in io.Reader = stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	measured, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(measured) == 0 {
		return fmt.Errorf("no benchmark result lines in input")
	}

	names := make([]string, 0, len(measured))
	for name := range measured {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	compared := 0
	for _, name := range names {
		base, ok := baseline[name]
		if !ok {
			fmt.Fprintf(stdout, "SKIP %s: not in any baseline\n", name)
			continue
		}
		got := measured[name]
		compared++
		check := func(metric string, gotV, baseV, tol float64) {
			if baseV <= 0 || tol < 0 {
				return // untracked metric (e.g. 0 allocs) or skipped
			}
			ratio := gotV/baseV - 1
			status := "ok"
			if ratio > tol {
				status = "REGRESSION"
				failures = append(failures, fmt.Sprintf("%s %s: %.0f vs baseline %.0f (+%.0f%%, limit +%.0f%%)",
					name, metric, gotV, baseV, ratio*100, tol*100))
			}
			fmt.Fprintf(stdout, "%-10s %s %s: %.0f vs %.0f (%+.1f%%)\n",
				status, name, metric, gotV, baseV, ratio*100)
		}
		check("ns/op", got.NsOp, base.NsOp, nsTol)
		check("B/op", got.BOp, base.BOp, *threshold)
		check("allocs/op", got.AllocsOp, base.AllocsOp, *threshold)
	}
	if compared == 0 {
		return fmt.Errorf("no measured benchmark matched a baseline entry")
	}
	if *scalingFloor > 0 {
		scaleFailures, err := checkScaling(measured, *scalingBench, *scalingFloor, *cores, stdout)
		if err != nil {
			return err
		}
		failures = append(failures, scaleFailures...)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stdout, "FAIL", f)
		}
		return fmt.Errorf("%d benchmark metric(s) regressed past the threshold", len(failures))
	}
	fmt.Fprintf(stdout, "benchdiff: %d benchmark(s) within thresholds\n", compared)
	return nil
}

// checkScaling enforces the parallel-efficiency floor on one benchmark
// family: every measured "<prefix><K>" with K > 1 must reach
// (ns_1/ns_K)/min(K, cores) >= floor. The single-worker variant is the
// denominator and must be present; a family with no multi-worker
// variants is an error, since a gate that silently checks nothing
// would pass forever.
func checkScaling(measured map[string]measurement, prefix string, floor float64, cores int, stdout io.Writer) ([]string, error) {
	if prefix == "" {
		return nil, fmt.Errorf("-scaling-floor set but -scaling-bench empty")
	}
	if cores < 1 {
		return nil, fmt.Errorf("-cores must be positive, got %d", cores)
	}
	variants := make(map[int]float64)
	for name, m := range measured {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		k, err := strconv.Atoi(name[len(prefix):])
		if err != nil || k < 1 {
			continue // not a worker-count variant of this family
		}
		variants[k] = m.NsOp
	}
	base, ok := variants[1]
	if !ok || base <= 0 {
		return nil, fmt.Errorf("scaling gate: no single-worker measurement for %q", prefix)
	}
	ks := make([]int, 0, len(variants))
	for k := range variants {
		if k > 1 {
			ks = append(ks, k)
		}
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("scaling gate: no multi-worker variants of %q measured", prefix)
	}
	sort.Ints(ks)
	var failures []string
	for _, k := range ks {
		ideal := k
		if cores < ideal {
			ideal = cores
		}
		speedup := base / variants[k]
		eff := speedup / float64(ideal)
		status := "ok"
		if eff < floor {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf(
				"%s%d: efficiency %.2f below floor %.2f (%.2fx speedup over 1 worker, ideal %dx)",
				prefix, k, eff, floor, speedup, ideal))
		}
		fmt.Fprintf(stdout, "%-10s scaling %s%d: %.2fx speedup, efficiency %.2f (floor %.2f, cores %d)\n",
			status, prefix, k, speedup, eff, floor, cores)
	}
	return failures, nil
}

// baselineNum extracts the report number from a BENCH_N.json path; -1
// when the name carries no number.
var baselineNumRe = regexp.MustCompile(`(\d+)`)

func baselineNum(path string) int {
	m := baselineNumRe.FindString(filepath.Base(path))
	if m == "" {
		return -1
	}
	n, err := strconv.Atoi(m)
	if err != nil {
		return -1
	}
	return n
}

// loadBaselines merges all matching baseline files; higher-numbered
// (more recent) reports win per benchmark. Ordering is numeric on the
// report number, not lexical — lexically BENCH_10 sorts before
// BENCH_3 and the stale baseline would silently win from the tenth
// report onward.
func loadBaselines(pattern string) (map[string]baselineEntry, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	sort.Slice(paths, func(i, j int) bool {
		ni, nj := baselineNum(paths[i]), baselineNum(paths[j])
		if ni != nj {
			return ni < nj
		}
		return paths[i] < paths[j]
	})
	out := make(map[string]baselineEntry)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var bf baselineFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, b := range bf.Benchmarks {
			if b.After == nil {
				continue // benchmark retired in this report
			}
			out[name] = *b.After
		}
	}
	return out, nil
}

// parseBench extracts measurements from `go test -bench` output. A
// benchmark appearing more than once keeps its best (minimum) ns/op —
// the conventional stance that noise only ever slows a run down.
func parseBench(r io.Reader) (map[string]measurement, error) {
	out := make(map[string]measurement)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		var bop, allocs float64
		if m[3] != "" {
			bop, _ = strconv.ParseFloat(m[3], 64)
		}
		if m[4] != "" {
			allocs, _ = strconv.ParseFloat(m[4], 64)
		}
		got := measurement{NsOp: ns, BOp: bop, AllocsOp: allocs}
		if prev, ok := out[name]; ok && prev.NsOp <= got.NsOp {
			continue
		}
		out[name] = got
	}
	return out, sc.Err()
}
