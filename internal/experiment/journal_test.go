package experiment

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"quditkit/internal/journal"
	"quditkit/internal/metrics"
	"quditkit/internal/serve"
)

// openSweepJournal opens (or reopens) a sweeps journal in dir.
func openSweepJournal(t *testing.T, dir string) (*journal.Journal, journal.Recovery) {
	t.Helper()
	jl, rec, err := journal.Open(dir, "sweeps")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	return jl, rec
}

// decayRunner is the deterministic scripted runner used across the
// resume tests: identical cell requests always produce identical
// results, the property real processors provide via seeded simulation.
func decayRunner() *fakeRunner {
	return &fakeRunner{fn: func(_ context.Context, req serve.JobRequest) (serve.JobView, error) {
		shots := 1000
		zero := shots - 20*len(req.Circuit.Ops)
		return doneView(shots, zero, false), nil
	}}
}

// aggregateBytes renders a sweep's aggregate for byte comparison.
func aggregateBytes(t *testing.T, view SweepView) []byte {
	t.Helper()
	if view.Aggregate == nil {
		t.Fatalf("sweep %s has no aggregate: %+v", view.ID, view)
	}
	data, err := json.Marshal(view.Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runFullSweep executes rbReq to completion on a journaled manager and
// returns the recovered journal records plus the undisturbed aggregate.
func runFullSweep(t *testing.T) (recs []journal.Record, undisturbed []byte) {
	t.Helper()
	dir := t.TempDir()
	jl, _ := openSweepJournal(t, dir)
	m := newTestManager(t, decayRunner(), Config{Journal: jl})
	id, err := m.Submit(rbReq())
	if err != nil {
		t.Fatal(err)
	}
	view := awaitSweep(t, m, id)
	if view.State != SweepCompleted {
		t.Fatalf("state %q", view.State)
	}
	undisturbed = aggregateBytes(t, view)
	m.Close()
	jl.Close()
	_, rec := openSweepJournal(t, dir)
	return rec.Records, undisturbed
}

// crashJournal writes the given records into a fresh journal dir,
// simulating the WAL a kill -9 leaves behind.
func crashJournal(t *testing.T, recs []journal.Record) string {
	t.Helper()
	dir := t.TempDir()
	jl, _ := openSweepJournal(t, dir)
	for _, r := range recs {
		if err := jl.Append(r.Kind, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()
	return dir
}

// TestSweepJournalResumeRunsOnlyUnfinishedCells is the mid-sweep crash
// round trip: a journal holding the admit record plus three of six cell
// settlements resumes as a sweep that re-runs exactly the other three
// cells and finalizes an aggregate byte-identical to the undisturbed
// run.
func TestSweepJournalResumeRunsOnlyUnfinishedCells(t *testing.T) {
	recs, undisturbed := runFullSweep(t)

	var crash []journal.Record
	settles := 0
	for _, r := range recs {
		switch r.Kind {
		case recSweepAdmit:
			crash = append(crash, r)
		case recCellSettle:
			if settles < 3 {
				crash = append(crash, r)
				settles++
			}
		}
	}
	if settles != 3 {
		t.Fatalf("journal yielded %d cell settles, want ≥3", settles)
	}

	dir := crashJournal(t, crash)
	jl, rec := openSweepJournal(t, dir)
	runner := decayRunner()
	m := newTestManager(t, runner, Config{Journal: jl})
	n, err := m.Replay(rec)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("resumed %d sweeps, want 1", n)
	}
	view := awaitSweep(t, m, "s-000001")
	if view.State != SweepCompleted {
		t.Fatalf("resumed state %q", view.State)
	}
	if got := runner.calls.Load(); got != 3 {
		t.Fatalf("resume ran %d cells, want exactly the 3 unfinished", got)
	}
	if resumed := aggregateBytes(t, view); string(resumed) != string(undisturbed) {
		t.Fatalf("resumed aggregate differs:\n  resumed:     %s\n  undisturbed: %s", resumed, undisturbed)
	}
	if js := m.JournalStats(); js == nil || js.Replayed != 1 {
		t.Fatalf("journal stats = %+v, want replayed=1", js)
	}
}

// TestSweepJournalFullyRestoredFinalizesImmediately covers a crash
// after the last cell settled but before the sweep settle record
// landed: replay restores every cell, runs nothing, and finalizes the
// identical aggregate from the records alone.
func TestSweepJournalFullyRestoredFinalizesImmediately(t *testing.T) {
	recs, undisturbed := runFullSweep(t)

	var crash []journal.Record
	for _, r := range recs {
		if r.Kind == recSweepAdmit || r.Kind == recCellSettle {
			crash = append(crash, r)
		}
	}
	dir := crashJournal(t, crash)
	jl, rec := openSweepJournal(t, dir)
	runner := decayRunner()
	m := newTestManager(t, runner, Config{Journal: jl})
	if n, err := m.Replay(rec); err != nil || n != 1 {
		t.Fatalf("replay = (%d, %v), want (1, nil)", n, err)
	}
	view := awaitSweep(t, m, "s-000001")
	if got := runner.calls.Load(); got != 0 {
		t.Fatalf("fully-restored sweep re-ran %d cells, want 0", got)
	}
	if resumed := aggregateBytes(t, view); string(resumed) != string(undisturbed) {
		t.Fatalf("restored aggregate differs from undisturbed run")
	}
}

// TestSweepJournalSettledSkippedAndCounterResumes: a settled sweep is
// not resumed, and the ID counter continues past it.
func TestSweepJournalSettledSkippedAndCounterResumes(t *testing.T) {
	recs, _ := runFullSweep(t)
	dir := crashJournal(t, recs) // includes the sweep settle record

	jl, rec := openSweepJournal(t, dir)
	runner := decayRunner()
	m := newTestManager(t, runner, Config{Journal: jl})
	if n, err := m.Replay(rec); err != nil || n != 0 {
		t.Fatalf("replay = (%d, %v), want (0, nil)", n, err)
	}
	if got := runner.calls.Load(); got != 0 {
		t.Fatalf("settled sweep re-ran %d cells", got)
	}
	if _, err := m.Status("s-000001"); err == nil {
		t.Fatal("settled sweep was resurrected")
	}
	id, err := m.Submit(rbReq())
	if err != nil {
		t.Fatal(err)
	}
	if id != "s-000002" {
		t.Fatalf("post-replay sweep ID = %s, want s-000002", id)
	}
}

// TestSweepJournalCloseSettlesBeforeRestart is the shutdown-ordering
// satellite at the manager level: Close cancels a running sweep, every
// cell settles as cancelled (journaled), and the restarted manager
// resumes nothing — a graceful shutdown leaves no cell "running that
// will never run again".
func TestSweepJournalCloseSettlesBeforeRestart(t *testing.T) {
	dir := t.TempDir()
	jl, _ := openSweepJournal(t, dir)
	started := make(chan struct{}, 16)
	runner := &fakeRunner{fn: func(ctx context.Context, req serve.JobRequest) (serve.JobView, error) {
		started <- struct{}{}
		<-ctx.Done() // hold the cell until shutdown cancels the sweep
		return serve.JobView{}, ctx.Err()
	}}
	m, err := NewManager(runner, Config{Journal: jl})
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(rbReq())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("no cell ever started")
	}
	m.Close()

	// Close must have settled the sweep terminally before returning.
	view, err := m.Status(id)
	if err != nil || view.State != SweepCancelled {
		t.Fatalf("after Close, sweep = (%+v, %v), want cancelled", view, err)
	}
	if view.SettledCells != view.TotalCells {
		t.Fatalf("after Close, %d/%d cells settled", view.SettledCells, view.TotalCells)
	}
	jl.Close()

	jl2, rec := openSweepJournal(t, dir)
	m2 := newTestManager(t, decayRunner(), Config{Journal: jl2})
	if n, err := m2.Replay(rec); err != nil || n != 0 {
		t.Fatalf("replay after graceful shutdown = (%d, %v), want (0, nil)", n, err)
	}
}

// TestSweepJournalCorruptRequestFailsLoudly: a journaled request that
// no longer expands must fail Replay, not silently drop the sweep.
func TestSweepJournalCorruptRequestFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	jl, _ := openSweepJournal(t, dir)
	data, _ := json.Marshal(sweepAdmitRecord{ID: "s-000001", Request: []byte(`{"kind":"no-such-kind"}`)})
	if err := jl.Append(recSweepAdmit, data); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	jl2, rec := openSweepJournal(t, dir)
	m := newTestManager(t, decayRunner(), Config{Journal: jl2})
	if _, err := m.Replay(rec); err == nil {
		t.Fatal("corrupt request replayed silently")
	}
}

// TestStatsInjection: with a journal configured, GET /v1/stats merges
// the sweep_journal block into the base handler's body without
// disturbing existing fields; other routes pass through.
func TestStatsInjection(t *testing.T) {
	dir := t.TempDir()
	jl, _ := openSweepJournal(t, dir)
	m := newTestManager(t, decayRunner(), Config{Journal: jl})
	base := http.NewServeMux()
	base.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"enqueued":7,"cache_hits":3}`))
	})
	srv := httptest.NewServer(NewHandler(m, base))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if string(got["enqueued"]) != "7" || string(got["cache_hits"]) != "3" {
		t.Fatalf("base fields disturbed: %v", got)
	}
	var js JournalStats
	if err := json.Unmarshal(got["sweep_journal"], &js); err != nil {
		t.Fatalf("sweep_journal block missing or invalid: %v", err)
	}
	if js.WALBytes == 0 {
		t.Fatalf("sweep_journal gauges empty: %+v", js)
	}

	// Without a journal the stats route is not intercepted.
	m2 := newTestManager(t, decayRunner(), Config{})
	srv2 := httptest.NewServer(NewHandler(m2, base))
	defer srv2.Close()
	resp2, err := http.Get(srv2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var plain map[string]json.RawMessage
	if err := json.NewDecoder(resp2.Body).Decode(&plain); err != nil {
		t.Fatal(err)
	}
	if _, ok := plain["sweep_journal"]; ok {
		t.Fatal("unjournaled manager injected sweep_journal")
	}
}

// TestSweepJournalEventSeqResume: a subscriber that saw events before
// the crash still reaches the terminal event after resume via
// Last-Event-ID semantics — the rebuilt log only ever grows past any
// previously seen sequence number for an unsettled sweep.
func TestSweepJournalEventSeqResume(t *testing.T) {
	recs, _ := runFullSweep(t)
	var crash []journal.Record
	settles := 0
	for _, r := range recs {
		switch r.Kind {
		case recSweepAdmit:
			crash = append(crash, r)
		case recCellSettle:
			if settles < 5 {
				crash = append(crash, r)
				settles++
			}
		}
	}
	dir := crashJournal(t, crash)
	jl, rec := openSweepJournal(t, dir)
	m := newTestManager(t, decayRunner(), Config{Journal: jl})
	if _, err := m.Replay(rec); err != nil {
		t.Fatal(err)
	}
	view := awaitSweep(t, m, "s-000001")
	if view.State != SweepCompleted {
		t.Fatalf("state %q", view.State)
	}
	s, err := m.sweepByID("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	last := s.events[len(s.events)-1]
	s.mu.Unlock()
	// Pre-crash a watcher can have seen at most 1+settled events with
	// the highest cell seq == number of settled cells; the terminal
	// event's rebuilt seq must exceed any such value (= 1 + total
	// cells).
	if !strings.Contains(last.State, SweepCompleted) || last.Seq != 1+view.TotalCells {
		t.Fatalf("terminal event = %+v, want seq %d", last, 1+view.TotalCells)
	}
}

// TestSweepJournalFailuresRender: a sweep-journal append refused after
// Close is counted and rendered on /metrics.
func TestSweepJournalFailuresRender(t *testing.T) {
	jl, _ := openSweepJournal(t, t.TempDir())
	m := newTestManager(t, decayRunner(), Config{Journal: jl})
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jl.Append(recCellSettle, []byte("{}")); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if js := m.JournalStats(); js == nil || js.Failures != 1 {
		t.Fatalf("sweep journal stats = %+v, want failures 1", js)
	}
	var b metrics.Buffer
	m.WriteMetrics(&b)
	var out strings.Builder
	if _, err := b.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\nquditd_sweep_journal_failures_total 1\n") {
		t.Fatalf("/metrics lacks the sweep failure counter:\n%s", out.String())
	}
}
