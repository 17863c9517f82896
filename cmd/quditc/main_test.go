package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quditkit/internal/core"
	"quditkit/internal/experiment"
	"quditkit/internal/serve"
)

const ghzSpec = `{"dims": [3,3,3], "ops": [
  {"gate": "dft",  "targets": [0]},
  {"gate": "csum", "targets": [0,1]},
  {"gate": "csum", "targets": [0,2]}]}`

func TestTranspileListing(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"transpile", "-level", "1"}, strings.NewReader(ghzSpec), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"passes:", "decompose", "depth:", "fidelity budget:"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestTranspileJSONLevel2(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"transpile", "-level", "2", "-json"}, strings.NewReader(ghzSpec), &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if rep.Level != "noise" {
		t.Errorf("level = %q, want noise", rep.Level)
	}
	if rep.Noise == nil || rep.Noise.Damping <= 0 {
		t.Errorf("expected device-derived noise, got %+v", rep.Noise)
	}
	if rep.PhysicalOps <= rep.LogicalOps {
		t.Errorf("decomposition did not expand ops: %d -> %d", rep.LogicalOps, rep.PhysicalOps)
	}
	if len(rep.Ops) != rep.PhysicalOps {
		t.Errorf("ops dump has %d entries, report says %d", len(rep.Ops), rep.PhysicalOps)
	}
}

func TestTranspileDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"transpile", "-level", "1"}, strings.NewReader(ghzSpec), &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"transpile", "-level", "1"}, strings.NewReader(ghzSpec), &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("repeated transpile runs differ")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(""), &out); err == nil {
		t.Error("no subcommand accepted")
	}
	if err := run([]string{"bogus"}, strings.NewReader(""), &out); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"transpile"}, strings.NewReader("{not json"), &out); err == nil {
		t.Error("invalid JSON accepted")
	}
	if err := run([]string{"transpile", "-level", "9"}, strings.NewReader(ghzSpec), &out); err == nil {
		t.Error("undefined level accepted")
	}
}

// newJobServer boots an in-process quditd service for the client
// subcommands to talk to.
func newJobServer(t *testing.T) *httptest.Server {
	t.Helper()
	proc, err := core.NewCompactProcessor(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := serve.New(proc, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewHandler(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts
}

const jobSpec = `{"circuit": ` + ghzSpec + `, "shots": 64}`

func TestSubmitAndWatch(t *testing.T) {
	ts := newJobServer(t)

	// Plain submit returns the job view.
	var out bytes.Buffer
	if err := run([]string{"submit", "-addr", ts.URL}, strings.NewReader(jobSpec), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "job j-") {
		t.Fatalf("submit output %q", out.String())
	}

	// submit -watch streams transitions to settlement.
	out.Reset()
	if err := run([]string{"submit", "-addr", ts.URL, "-watch"}, strings.NewReader(jobSpec), &out); err != nil {
		t.Fatalf("watch failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "done") {
		t.Fatalf("watch output lacks terminal state:\n%s", out.String())
	}

	// watch re-attaches to the settled job and replays to the terminal
	// event; -json emits raw event objects.
	id := strings.Fields(strings.TrimSpace(out.String()))[0]
	out.Reset()
	if err := run([]string{"watch", "-addr", ts.URL, "-json", id}, strings.NewReader(""), &out); err != nil {
		t.Fatalf("re-watch failed: %v\n%s", err, out.String())
	}
	var ev serve.Event
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ev); err != nil || ev.State != "done" {
		t.Fatalf("last watch event %q err %v", lines[len(lines)-1], err)
	}
}

func TestWatchErrors(t *testing.T) {
	ts := newJobServer(t)
	var out bytes.Buffer
	if err := run([]string{"watch", "-addr", ts.URL, "j-999999"}, strings.NewReader(""), &out); err == nil {
		t.Error("watching an unknown job succeeded")
	}
	if err := run([]string{"watch", "-addr", ts.URL}, strings.NewReader(""), &out); err == nil {
		t.Error("watch without a job id succeeded")
	}
	if err := run([]string{"submit", "-addr", ts.URL}, strings.NewReader(`{"circuit":{"dims":[3],"ops":[{"gate":"nope","targets":[0]}]}}`), &out); err == nil {
		t.Error("submitting an invalid job succeeded")
	}
}

// newSweepServer boots the full standalone sweep stack (job service +
// experiment manager) for the sweep subcommand to talk to.
func newSweepServer(t *testing.T) *httptest.Server {
	t.Helper()
	proc, err := core.NewCompactProcessor(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := serve.New(proc, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := experiment.NewManager(experiment.ServeRunner{Service: svc}, experiment.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(experiment.NewHandler(mgr, serve.NewHandler(svc)))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
		svc.Close()
	})
	return ts
}

const sweepSpec = `{"kind": "rb", "shots": 32, "seed": 5,
  "rb": {"dim": 3, "lengths": [1, 2], "sequences": 2}}`

func TestSweepSubmitAndWatch(t *testing.T) {
	ts := newSweepServer(t)

	// Plain submit prints the accepted view and returns immediately.
	var out bytes.Buffer
	if err := run([]string{"sweep", "-addr", ts.URL}, strings.NewReader(sweepSpec), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sweep s-") || !strings.Contains(out.String(), "4 cells") {
		t.Fatalf("sweep output %q", out.String())
	}
	// The resubmission below may only expect cache hits once every cell
	// of this sweep has settled; until then its cells race this sweep's
	// for the queue.
	id := strings.TrimSuffix(strings.Fields(out.String())[1], ":")
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("waiting on sweep %s: status %d", id, resp.StatusCode)
	}

	// -watch streams cell settlements and the aggregate summary.
	out.Reset()
	if err := run([]string{"sweep", "-addr", ts.URL, "-watch"}, strings.NewReader(sweepSpec), &out); err != nil {
		t.Fatalf("sweep -watch: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"cell", "completed: 4 done", "decay_rate="} {
		if !strings.Contains(s, want) {
			t.Errorf("watch output missing %q:\n%s", want, s)
		}
	}
	// Every cell of the resubmission settles from the result cache.
	if !strings.Contains(s, "(4 cached)") {
		t.Errorf("resubmitted sweep not fully cached:\n%s", s)
	}

	// -json emits raw event objects; the last is the terminal sweep
	// event carrying the aggregate.
	out.Reset()
	if err := run([]string{"sweep", "-addr", ts.URL, "-watch", "-json"}, strings.NewReader(sweepSpec), &out); err != nil {
		t.Fatalf("sweep -watch -json: %v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var ev experiment.SweepEvent
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ev); err != nil {
		t.Fatalf("last event %q: %v", lines[len(lines)-1], err)
	}
	if ev.State != experiment.SweepCompleted || ev.Sweep == nil || ev.Sweep.Aggregate == nil {
		t.Fatalf("terminal event %+v", ev)
	}
}

func TestSweepErrors(t *testing.T) {
	ts := newSweepServer(t)
	var out bytes.Buffer
	if err := run([]string{"sweep", "-addr", ts.URL}, strings.NewReader(`{"kind":"rb"}`), &out); err == nil {
		t.Error("invalid sweep accepted")
	}
	if err := run([]string{"sweep", "-addr", ts.URL, "/does/not/exist.json"}, strings.NewReader(""), &out); err == nil {
		t.Error("missing request file accepted")
	}
	if err := run([]string{"sweep", "-addr", "http://127.0.0.1:1"}, strings.NewReader(sweepSpec), &out); err == nil {
		t.Error("unreachable server accepted")
	}
	if err := watchSweep(ts.URL, "", "s-999999", false, 0, &out); err == nil {
		t.Error("watching an unknown sweep succeeded")
	}
}

// TestStreamSSEReconnect drops the first connection mid-stream; the
// client must reconnect with Last-Event-ID and resume where it left
// off without replaying event 0.
func TestStreamSSEReconnect(t *testing.T) {
	var conns atomic.Int32
	var gotLastID atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := conns.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		if n == 1 {
			// First connection: one event, then drop.
			fmt.Fprintf(w, "id: 0\nevent: cell\ndata: {\"seq\":0}\n\n")
			return
		}
		gotLastID.Store(r.Header.Get("Last-Event-ID"))
		fmt.Fprintf(w, "id: 1\nevent: sweep\ndata: {\"seq\":1}\n\n")
	}))
	defer srv.Close()

	var seqs []int
	err := streamSSE(srv.URL, "", 30*time.Second, func(event, data string) bool {
		var ev struct {
			Seq int `json:"seq"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad data %q: %v", data, err)
		}
		seqs = append(seqs, ev.Seq)
		return event == "sweep"
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 1 {
		t.Fatalf("events %v, want [0 1]", seqs)
	}
	if got := gotLastID.Load(); got != "0" {
		t.Fatalf("reconnect sent Last-Event-ID %v, want 0", got)
	}
}

// TestStreamSSESurvivesRestart kills the serving process's listener
// entirely — reconnects are refused, not merely dropped — then brings a
// new server up on the same port, exactly what a journaled quditd
// restart looks like from the client side. The watch must ride out the
// outage with backoff and resume via Last-Event-ID instead of failing.
func TestStreamSSESurvivesRestart(t *testing.T) {
	var conns atomic.Int32
	firstServed := make(chan struct{})
	var once sync.Once
	srv1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if conns.Add(1) > 1 {
			// Pre-restart retries: abort without a response so the
			// client keeps treating the stream as dropped.
			panic(http.ErrAbortHandler)
		}
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "id: 0\nevent: cell\ndata: {\"seq\":0}\n\n")
		once.Do(func() { close(firstServed) })
	}))
	addr := srv1.Listener.Addr().String()
	url := srv1.URL

	var mu sync.Mutex
	var seqs []int
	done := make(chan error, 1)
	go func() {
		done <- streamSSE(url, "", 30*time.Second, func(event, data string) bool {
			var ev struct {
				Seq int `json:"seq"`
			}
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Errorf("bad data %q: %v", data, err)
			}
			mu.Lock()
			seqs = append(seqs, ev.Seq)
			mu.Unlock()
			return event == "sweep"
		})
	}()

	<-firstServed
	srv1.Close()
	// Leave the port dark long enough for at least one refused
	// reconnect before the "restarted daemon" comes back.
	time.Sleep(600 * time.Millisecond)

	var gotLastID atomic.Value
	srv2 := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotLastID.Store(r.Header.Get("Last-Event-ID"))
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "id: 1\nevent: sweep\ndata: {\"seq\":1}\n\n")
	}))
	srv2.Listener.Close()
	var (
		ln  net.Listener
		err error
	)
	for i := 0; i < 100; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	srv2.Listener = ln
	srv2.Start()
	defer srv2.Close()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("watch did not survive the restart: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("watch hung across the restart")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 1 {
		t.Fatalf("events %v, want [0 1]", seqs)
	}
	if got := gotLastID.Load(); got != "0" {
		t.Fatalf("resume sent Last-Event-ID %v, want 0", got)
	}
}

// TestStreamSSETimeout bounds a stream that never reaches its terminal
// event.
func TestStreamSSETimeout(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "id: 0\nevent: cell\ndata: {\"seq\":0}\n\n")
		// Never send the terminal event; the deadline must fire.
	}))
	defer srv.Close()
	err := streamSSE(srv.URL, "", 300*time.Millisecond, func(event, data string) bool { return false })
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want timeout", err)
	}
}

// TestPrintAggregate renders every kind's summary line.
func TestPrintAggregate(t *testing.T) {
	metric := 0.5
	cases := []struct {
		agg  experiment.Aggregate
		want string
	}{
		{experiment.Aggregate{RB: &experiment.RBAggregate{DecayRate: 0.9}}, "decay_rate=0.9"},
		{experiment.Aggregate{QAOA: &experiment.QAOAAggregate{BestRatio: 0.7}}, "best_ratio=0.7"},
		{experiment.Aggregate{SQED: &experiment.SQEDAggregate{Omega: 1.2}}, "omega=1.2"},
		{experiment.Aggregate{SQED: &experiment.SQEDAggregate{FitError: "flat"}}, "fit failed: flat"},
		{experiment.Aggregate{QRC: &experiment.QRCAggregate{EvalNMSE: 0.3}}, "eval_nmse=0.3"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		agg := c.agg
		printAggregate(&out, "s-000001", &experiment.SweepView{
			State: experiment.SweepCompleted, Aggregate: &agg, AggregateError: "partial",
		})
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("aggregate output missing %q:\n%s", c.want, out.String())
		}
	}
	// Cells without an aggregate still render.
	var out bytes.Buffer
	printCell(&out, "s-000001", 1, &experiment.CellView{Index: 0, State: "done", Metric: &metric, Cached: true})
	printCell(&out, "s-000001", 2, &experiment.CellView{Index: 1, State: "failed", Error: "boom"})
	printCell(&out, "s-000001", 3, &experiment.CellView{Index: 2, State: "cancelled"})
	for _, want := range []string{"metric=0.5", "(cached)", "failed: boom", "cancelled"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("cell output missing %q:\n%s", want, out.String())
		}
	}
}
