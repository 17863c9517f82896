package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smokeConfig builds quditd once and returns a tiny configuration: one
// cold start, short windows, shrunken jobs and sweeps.
func smokeConfig(t *testing.T, trace bool) *config {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns real quditd processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "quditd")
	out, err := exec.Command("go", "build", "-o", bin, "quditkit/cmd/quditd").CombinedOutput()
	if err != nil {
		t.Fatalf("building quditd: %v\n%s", err, out)
	}
	return &config{
		root: "..", bin: bin, work: dir, seed: 3,
		window: time.Second, warmup: 200 * time.Millisecond,
		setups: 1, trace: trace, small: true, rate: 100,
		spans: filepath.Join(dir, "spans.json"),
	}
}

// checkMetrics asserts that every named metric was emitted, finite, with
// its BENCHMARK.json unit.
func checkMetrics(t *testing.T, res *result, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: correct=%v failed=%d errors=%v", res.Workload, res.Correct, res.Failed, res.Errors)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", res.Workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", res.Workload, m.Name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", res.Workload, m.Name, got.Value)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", res.Workload, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestSmokeEndToEnd runs every workload briefly and checks its
// end-to-end metrics against BENCHMARK.json.
func TestSmokeEndToEnd(t *testing.T) {
	cfg := smokeConfig(t, false)
	spec := loadSpec(t)
	for _, name := range workloadNames {
		res, err := runWorkload(cfg, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkMetrics(t, res, spec.EndToEnd)
		if res.Metrics["setup_s"].Value <= 0 || res.Metrics["ops_per_s"].Value <= 0 {
			t.Errorf("%s: zero end-to-end metric: %+v", name, res.Metrics)
		}
	}
}

// TestSmokeTraced runs one traced workload and checks every per-layer
// metric, the layers table, and the span file.
func TestSmokeTraced(t *testing.T) {
	cfg := smokeConfig(t, true)
	res, err := runWorkload(cfg, "ghz_trajectory")
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, res, loadSpec(t).PerLayer)
	if len(res.Layers) == 0 || res.Ladder == nil || res.Ladder.E2EMS <= 0 {
		t.Fatalf("no layers table: %+v %+v", res.Layers, res.Ladder)
	}
	data, err := os.ReadFile(cfg.spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) == 0 {
		t.Fatalf("span file: %v, %d spans", err, len(doc.Spans))
	}
	for _, s := range doc.Spans {
		if s.EndUS < s.StartUS || s.Req == 0 {
			t.Fatalf("malformed span %+v", s)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0}, {19, 0}, {20, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %g", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}
}

// TestScheduleDeterministic checks that the open-loop arrival times and
// request bytes are a pure function of the seed.
func TestScheduleDeterministic(t *testing.T) {
	plan := func(seed int64) []arrival { return newSmallJobs(seed, 100).schedule(0, 2*time.Second) }
	a, b, c := plan(7), plan(7), plan(8)
	if len(a) != 200 {
		t.Fatalf("%d arrivals, want rate × window = 200", len(a))
	}
	differ := false
	for i := range a {
		if a[i].at != b[i].at || a[i].rep != b[i].rep || a[i].key != b[i].key || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("arrival %d differs between runs of one seed", i)
		}
		if i > 0 && a[i].at < a[i-1].at || a[i].at >= 2*time.Second {
			t.Fatalf("arrival %d at %v out of order or outside the window", i, a[i].at)
		}
		differ = differ || a[i].at != c[i].at || !bytes.Equal(a[i].body, c[i].body)
	}
	if !differ {
		t.Error("seeds 7 and 8 produced the same schedule")
	}
}

func TestBodiesDeterministic(t *testing.T) {
	g1, g2, g3 := newGHZ(5, 512), newGHZ(5, 512), newGHZ(6, 512)
	if !bytes.Equal(mustJSON(g1.job("ghz", 3)), mustJSON(g2.job("ghz", 3))) {
		t.Error("ghz body differs for one seed")
	}
	if bytes.Equal(mustJSON(g1.job("ghz", 3)), mustJSON(g3.job("ghz", 3))) {
		t.Error("ghz body identical across seeds")
	}
	if bytes.Equal(mustJSON(g1.job("ghz", 0)), mustJSON(g1.job("ghz", 1))) {
		t.Error("two jobs share a seed, so the result cache would answer")
	}
	for _, kind := range sweepKinds {
		a := mustJSON(sweepRequest(kind, mix(1, "sweep", 2), false))
		b := mustJSON(sweepRequest(kind, mix(1, "sweep", 2), false))
		if !bytes.Equal(a, b) {
			t.Errorf("%s sweep body differs for one seed", kind)
		}
	}
}

// TestDueTimeLatency checks that latency runs from when an op was due,
// not when it was sent, and that throughput spans start to last result.
func TestDueTimeLatency(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	samples := []sample{
		{due: at(0), sent: at(0), done: at(2)},
		{due: at(10), sent: at(15), done: at(17)}, // generator 5 ms late: charged to the op
		{due: at(20), sent: at(20), done: at(40)},
		{due: at(30), sent: at(40), done: at(50)}, // waited behind the slow op
	}
	st := summarize(t0, samples)
	if got := samples[1].latencyMS(); got != 7 {
		t.Errorf("latency of a late send = %g ms, want 7 (due → done)", got)
	}
	if got := samples[1].lateMS(); got != 5 {
		t.Errorf("lateness = %g ms, want 5", got)
	}
	if st.P50MS != quantile([]float64{2, 7, 20, 20}, 0.5) {
		t.Errorf("p50 = %g", st.P50MS)
	}
	if want := 4 / 0.050; math.Abs(st.OpsPerS-want) > 1e-9 {
		t.Errorf("ops/s = %g, want %g (4 ops over 50 ms)", st.OpsPerS, want)
	}
}

func TestLayersReconcile(t *testing.T) {
	r := rungs{
		Kernel: 8, Backend: 8.5, Transpile: 0.3, Submit: 9.0, Serve: 9.2, Journal: 9.4,
		CacheHit: 0.01, HTTPHit: 0.21, Direct: 9.6, Coord: 10.6, Worker: 9.6, E2E: 9.6,
		JournalOnPath: true,
	}
	rows, sum := layers(r)
	want := map[string]float64{
		"circuit.kernel": 8, "core.backend": 0.5, "core.transpile": 0.3, "core.result": 0.2,
		"serve.queue": 0.2, "journal.append": 0.2, "serve.http": 0.2, "cluster.hop": 1,
	}
	for _, row := range rows {
		if math.Abs(row.ExclusiveMS-want[row.Layer]) > 1e-9 {
			t.Errorf("%s exclusive = %g, want %g", row.Layer, row.ExclusiveMS, want[row.Layer])
		}
	}
	// The hop is off this workload's path, so it is not summed.
	if math.Abs(sum.SumMS-9.6) > 1e-9 || math.Abs(sum.UnattributedPct) > 1e-9 || !sum.Reconciled {
		t.Errorf("summary %+v, want sum 9.6 and 0%% unattributed", sum)
	}

	r.Submit = 8.0 // below transpile+backend: clamped, not negative
	r.E2E = 20
	rows, sum = layers(r)
	for _, row := range rows {
		if row.ExclusiveMS < 0 {
			t.Errorf("%s exclusive %g < 0", row.Layer, row.ExclusiveMS)
		}
	}
	if sum.Reconciled || sum.UnattributedPct < 40 {
		t.Errorf("a 20 ms end to end against a ~9.4 ms sum reconciled: %+v", sum)
	}
}

func TestCovered(t *testing.T) {
	t0 := time.Unix(0, 0)
	iv := func(a, b int) [2]time.Time {
		return [2]time.Time{t0.Add(time.Duration(a) * time.Millisecond), t0.Add(time.Duration(b) * time.Millisecond)}
	}
	got := covered([][2]time.Time{iv(5, 8), iv(0, 2), iv(1, 3), iv(6, 7), iv(10, 12)})
	if got != 8*time.Millisecond {
		t.Errorf("covered = %v, want 8ms", got)
	}
	if covered(nil) != 0 {
		t.Error("covered(nil) != 0")
	}
}
