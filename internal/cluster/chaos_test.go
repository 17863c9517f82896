package cluster

// The fleet chaos suite: every scenario here disturbs a running fleet
// — kill the coordinator, resize the ring mid-sweep, delay heartbeats
// past their TTL, cut an SSE relay mid-stream — and then asserts the
// one property the paper's dependability argument rests on: results
// are byte-identical to an undisturbed standalone run, and no accepted
// job is ever dropped. Faults are injected on chaos.Transport's seeded
// splitmix64 schedule, so each scenario runs under several distinct
// chaos seeds deterministically.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"quditkit/internal/chaos"
	"quditkit/internal/core"
	"quditkit/internal/experiment"
	"quditkit/internal/httpapi"
	"quditkit/internal/journal"
	"quditkit/internal/metrics"
	"quditkit/internal/serve"
	"quditkit/internal/sse"
)

// chaosSeeds are the distinct fault-schedule seeds every scenario runs
// under (the acceptance bar is at least three).
var chaosSeeds = []uint64{11, 23, 47}

// standaloneRef runs body to completion on a fresh standalone worker
// and returns the result's canonical JSON bytes — the reference every
// disturbed run must match exactly.
func standaloneRef(t *testing.T, body string) []byte {
	t.Helper()
	w := newTestWorker(t, 1, serve.Config{})
	view, status := postJob(t, w.ts.URL, body, true)
	if status != http.StatusOK || view.State != "done" || view.Result == nil {
		t.Fatalf("standalone reference run failed: status %d view %+v", status, view)
	}
	b, err := json.Marshal(view.Result)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// resultBytes marshals a job view's result for byte comparison.
func resultBytes(t *testing.T, view JobView) []byte {
	t.Helper()
	if view.Result == nil {
		t.Fatalf("job %s has no result (state %q, err %q)", view.ID, view.State, view.Error)
	}
	b, err := json.Marshal(view.Result)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// jobsPathOnly matches the dispatch POSTs a coordinator sends workers,
// so chaos schedules stay independent of status polls and stats
// scrapes.
func jobsPathOnly(r *http.Request) bool {
	return r.Method == http.MethodPost && r.URL.Path == "/v1/jobs"
}

// openCoordJournal opens (or reopens) a coordinator's jobs journal in
// dir.
func openCoordJournal(t *testing.T, dir string) (*journal.Journal, journal.Recovery) {
	t.Helper()
	jl, rec, err := journal.Open(dir, "jobs")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	return jl, rec
}

// TestChaosCoordinatorDeathMidQueue crashes the coordinator with jobs
// still in flight and restarts it from its journal: every accepted
// job must settle done on the successor with bytes identical to an
// undisturbed standalone run — zero dropped jobs. The first
// coordinator additionally dispatches through a chaos transport
// (drops, resets, delays, 5xx on the seeded schedule), so the dispatch
// retry/backoff path is exercised on the way in.
func TestChaosCoordinatorDeathMidQueue(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			jl1, _ := openCoordJournal(t, dir)
			clk := newFakeClock()
			proc, err := core.NewCompactProcessor(2, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Workers outlive the coordinator crash, exactly like real
			// quditd workers whose coordinator dies.
			wcfg := serve.Config{Shards: 1, QueueDepth: 32}
			w1 := newTestWorker(t, 1, wcfg)
			w2 := newTestWorker(t, 1, wcfg)

			tr := chaos.NewTransport(chaos.Config{
				Seed: seed,
				Drop: 0.10, Reset: 0.10, Delay: 0.15, P5xx: 0.05,
				MaxDelay: 30 * time.Millisecond,
				Match:    jobsPathOnly,
			})
			coord1, err := NewCoordinator(CoordinatorConfig{
				Proc:            proc,
				MonitorInterval: -1,
				Journal:         jl1,
				DispatchRetries: 6,
				DispatchBackoff: 5 * time.Millisecond,
				Client:          &http.Client{Timeout: 30 * time.Second, Transport: tr},
				now:             clk.Now,
			})
			if err != nil {
				t.Fatal(err)
			}
			coord1.Register("w1", w1.ts.URL)
			coord1.Register("w2", w2.ts.URL)
			ts1 := httptest.NewServer(Handler(coord1))

			base := int64(seed) * 1000
			// Two fast jobs settle before the crash...
			for i := int64(0); i < 2; i++ {
				body := ghzBody(64, base+i)
				ref := standaloneRef(t, body)
				view, status := postJob(t, ts1.URL, body, true)
				if status != http.StatusOK || view.State != "done" {
					t.Fatalf("fast job %d: status %d view %+v", i, status, view)
				}
				if got := resultBytes(t, view); string(got) != string(ref) {
					t.Fatalf("fast job %d: fleet bytes diverge from standalone\nfleet: %s\nref:   %s", i, got, ref)
				}
			}
			// ...four slow jobs are still queued or running when it dies.
			var slowIDs []string
			var slowBodies []string
			for i := int64(2); i < 6; i++ {
				body := ghzBody(65536, base+i)
				slowBodies = append(slowBodies, body)
				view, status := postJob(t, ts1.URL, body, false)
				if status != http.StatusOK && status != http.StatusAccepted {
					t.Fatalf("slow job %d: status %d view %+v", i, status, view)
				}
				slowIDs = append(slowIDs, view.ID)
			}
			if st := tr.Stats(); st.Requests == 0 {
				t.Fatal("chaos transport never saw a dispatch (Match broken?)")
			}

			// Crash: the server vanishes, the monitor dies, nothing is
			// written beyond what the journal already holds.
			ts1.Close()
			coord1.Close()
			jl1.Close()

			// Restart from the journal (clean transport: the replay
			// itself is what's under test here).
			jl2, rec := openCoordJournal(t, dir)
			coord2, err := NewCoordinator(CoordinatorConfig{
				Proc:            proc,
				MonitorInterval: -1,
				Journal:         jl2,
				now:             clk.Now,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord2.Close()
			if _, err := coord2.Replay(rec); err != nil {
				t.Fatal(err)
			}
			ts2 := httptest.NewServer(Handler(coord2))
			defer ts2.Close()

			for i, id := range slowIDs {
				view, status := getJob(t, ts2.URL, id, true)
				if status != http.StatusOK || view.State != "done" {
					t.Fatalf("job %s after restart: status %d state %q err %q", id, status, view.State, view.Error)
				}
				ref := standaloneRef(t, slowBodies[i])
				if got := resultBytes(t, view); string(got) != string(ref) {
					t.Fatalf("job %s: bytes diverge after coordinator replay\nfleet: %s\nref:   %s", id, got, ref)
				}
			}
			// The restored ID counter never reissues a live ID.
			again, _ := postJob(t, ts2.URL, ghzBody(64, base+6), true)
			for _, id := range slowIDs {
				if again.ID == id {
					t.Fatalf("restarted coordinator reissued job ID %s", id)
				}
			}
		})
	}
}

// TestChaosResizeMidSweep resizes the ring — a fresh worker joins and
// an original one drains — while a /v1/sweeps RB sweep is running, and
// asserts the sweep completes with zero failed cells and an aggregate
// byte-identical to the same sweep on an undisturbed standalone node.
func TestChaosResizeMidSweep(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			req := experiment.SweepRequest{
				Kind:    experiment.KindRB,
				Backend: "trajectory",
				Shots:   4096,
				Seed:    int64(seed),
				Noise:   &serve.NoiseSpec{Depol1: 0.04},
				RB:      &experiment.RBSpec{Dim: 3, Lengths: []int{1, 2, 4, 8}, Sequences: 3},
			}

			// Undisturbed reference: the same sweep through a standalone
			// node's in-process runner.
			ref := newTestWorker(t, 1, serve.Config{})
			mgrRef, err := experiment.NewManager(experiment.ServeRunner{Service: ref.svc}, experiment.Config{Parallel: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer mgrRef.Close()
			refID, err := mgrRef.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			refView, err := mgrRef.Await(ctx, refID)
			if err != nil {
				t.Fatal(err)
			}
			if refView.FailedCells != 0 || refView.Aggregate == nil {
				t.Fatalf("reference sweep broken: %+v", refView)
			}
			refAgg, _ := json.Marshal(refView.Aggregate)

			// The fleet under chaos: two slow workers, resize mid-sweep.
			f := newFleet(t, serve.Config{Shards: 1}, "w1", "w2")
			mgr, err := experiment.NewManager(f.coord, experiment.Config{Parallel: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()
			id, err := mgr.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			// Wait for the sweep to be genuinely mid-flight...
			deadline := time.Now().Add(60 * time.Second)
			for {
				view, err := mgr.Status(id)
				if err != nil {
					t.Fatal(err)
				}
				if view.SettledCells >= 2 || view.State != experiment.SweepRunning {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("sweep never settled its first cells")
				}
				time.Sleep(5 * time.Millisecond)
			}
			// ...then resize: w3 joins, w1 drains out.
			w3 := newTestWorker(t, 1, serve.Config{Shards: 1})
			f.coord.Register("w3", w3.ts.URL)
			if _, _, err := f.coord.Drain("w1"); err != nil {
				t.Fatal(err)
			}

			view, err := mgr.Await(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if view.State != experiment.SweepCompleted {
				t.Fatalf("sweep state %q after resize", view.State)
			}
			if view.FailedCells != 0 || view.CancelledCells != 0 || view.DoneCells != view.TotalCells {
				t.Fatalf("cells dropped across resize: %+v", view)
			}
			if view.AggregateError != "" || view.Aggregate == nil {
				t.Fatalf("aggregate missing after resize: %+v", view)
			}
			agg, _ := json.Marshal(view.Aggregate)
			if string(agg) != string(refAgg) {
				t.Fatalf("aggregate bytes diverge across resize\nfleet: %s\nref:   %s", agg, refAgg)
			}
			// The drain really removed w1 from the registry.
			stats := f.coord.Stats()
			for _, row := range stats.Workers {
				if row.ID == "w1" {
					t.Fatal("drained worker still registered")
				}
			}
		})
	}
}

// TestChaosHeartbeatExpiryUnderDelay injects seeded delays and drops
// into a real agent's heartbeats until the coordinator's TTL reaps the
// worker, then asserts the 404→re-register self-heal brings it back
// and the fleet still produces byte-identical results. This scenario
// runs on the real clock: the TTL expiry under transport delay IS the
// system under test.
func TestChaosHeartbeatExpiryUnderDelay(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			proc, err := core.NewCompactProcessor(2, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			coord, err := NewCoordinator(CoordinatorConfig{
				Proc:            proc,
				HeartbeatTTL:    150 * time.Millisecond,
				MonitorInterval: 40 * time.Millisecond,
				DispatchRetries: 8,
				DispatchBackoff: 10 * time.Millisecond,
				MaxRequeues:     10,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			var registrations atomic.Int64
			h := Handler(coord)
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost && r.URL.Path == "/v1/cluster/register" {
					registrations.Add(1)
				}
				h.ServeHTTP(w, r)
			}))
			defer ts.Close()

			w1 := newTestWorker(t, 1, serve.Config{})
			tr := chaos.NewTransport(chaos.Config{
				Seed: seed,
				Drop: 0.35, Delay: 0.30,
				MaxDelay: 500 * time.Millisecond,
				Match: func(r *http.Request) bool {
					return r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/v1/cluster/heartbeat")
				},
			})
			agent, err := StartAgent(AgentConfig{
				CoordinatorURL: ts.URL,
				ID:             "w1",
				AdvertiseURL:   w1.ts.URL,
				Interval:       30 * time.Millisecond,
				RetryInterval:  20 * time.Millisecond,
				Client:         &http.Client{Timeout: 2 * time.Second, Transport: tr},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				agent.Drain(ctx)
			}()

			// The seeded schedule must eventually hold beats past the
			// TTL: the worker gets reaped, its next beat 404s, and the
			// agent re-registers.
			deadline := time.Now().Add(20 * time.Second)
			for registrations.Load() < 2 {
				if time.Now().After(deadline) {
					t.Fatalf("no reap+re-register after 20s (registrations=%d, chaos=%+v)",
						registrations.Load(), tr.Stats())
				}
				time.Sleep(10 * time.Millisecond)
			}
			// Wait for the self-healed worker to be live again...
			for {
				alive := false
				for _, row := range coord.Stats().Workers {
					if row.ID == "w1" && row.Alive && !row.Draining {
						alive = true
					}
				}
				if alive {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("worker never came back alive after re-register")
				}
				time.Sleep(10 * time.Millisecond)
			}
			// ...and prove the fleet still computes the right bytes.
			body := ghzBody(128, int64(seed)*1000+77)
			ref := standaloneRef(t, body)
			view, status := postJob(t, ts.URL, body, true)
			if status != http.StatusOK || view.State != "done" {
				t.Fatalf("post-heal job: status %d view %+v", status, view)
			}
			if got := resultBytes(t, view); string(got) != string(ref) {
				t.Fatalf("post-heal bytes diverge\nfleet: %s\nref:   %s", got, ref)
			}
		})
	}
}

// TestChaosSSEWatchSurvivesRequeue cuts the coordinator's SSE relay to
// the owning worker mid-stream: the subscriber must see a "requeued"
// event and then the terminal event from the replacement worker, with
// result bytes identical to an undisturbed standalone run — one
// subscription surviving the failover end to end.
func TestChaosSSEWatchSurvivesRequeue(t *testing.T) {
	cfg := serve.Config{Shards: 1, QueueDepth: 16}
	f := newFleet(t, cfg, "w1", "w2")
	// A blocker pins w2's only shard so the watched job stays queued
	// there long enough for the stream cut to land mid-wait.
	blocker, s := f.bodyOwnedBy(t, "w2", 100000, 500)
	watched, _ := f.bodyOwnedBy(t, "w2", 96, s+1)
	ref := standaloneRef(t, watched)

	if _, status := postJob(t, f.ts.URL, blocker, false); status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("blocker status %d", status)
	}
	wv, status := postJob(t, f.ts.URL, watched, false)
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("watched status %d", status)
	}

	resp, err := http.Get(f.ts.URL + "/v1/jobs/" + wv.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	evc := make(chan sse.Frame, 64)
	go func() {
		defer close(evc)
		sse.Read(resp.Body, func(f sse.Frame) bool {
			evc <- f
			return false
		})
	}()
	recv := func(why string) (sse.Frame, bool) {
		select {
		case ev, ok := <-evc:
			return ev, ok
		case <-time.After(60 * time.Second):
			t.Fatalf("timed out waiting for %s", why)
			return sse.Frame{}, false
		}
	}

	// First frame confirms the relay is attached to w2's stream; then
	// the chaos: cut every connection into w2, relay included.
	first, ok := recv("first relayed event")
	if !ok {
		t.Fatal("stream closed before any event")
	}
	var firstEv serve.Event
	if err := json.Unmarshal(first.Data, &firstEv); err != nil {
		t.Fatalf("bad first event %q: %v", first.Data, err)
	}
	f.workers["w2"].ts.CloseClientConnections()

	sawRequeued := false
	var last serve.Event
	for {
		ev, ok := recv("requeued + terminal events")
		if !ok {
			break // stream ended after the terminal frame
		}
		if ev.Event == "requeued" {
			sawRequeued = true
			var move struct {
				Worker string `json:"worker"`
			}
			if err := json.Unmarshal(ev.Data, &move); err != nil || move.Worker != "w1" {
				t.Fatalf("requeued event %q (err %v), want move to w1", ev.Data, err)
			}
			continue
		}
		if err := json.Unmarshal(ev.Data, &last); err != nil {
			t.Fatalf("bad event %q: %v", ev.Data, err)
		}
	}
	if !sawRequeued {
		t.Fatal("subscriber never saw the requeued event")
	}
	if last.State != "done" || last.Result == nil {
		t.Fatalf("terminal event %+v", last)
	}
	got, _ := json.Marshal(last.Result)
	if string(got) != string(ref) {
		t.Fatalf("streamed result bytes diverge across requeue\nfleet: %s\nref:   %s", got, ref)
	}
}

// TestCoordinatorJournalRoundTrip pins the coordinator journal's
// contract: unsettled jobs and registered workers survive a restart
// byte-for-byte (IDs, payloads, routing), settled views are
// deliberately forgotten, and the ID counter never reissues. A torn
// final record is the residue of a crash mid-append and replays the
// same state; a corrupt snapshot or record fails loudly.
func TestCoordinatorJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	proc, err := core.NewCompactProcessor(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(jl *journal.Journal) *Coordinator {
		c, err := NewCoordinator(CoordinatorConfig{
			Proc: proc, MonitorInterval: -1, Journal: jl, now: clk.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	jl1, _ := openCoordJournal(t, dir)
	coord1 := mk(jl1)
	w1 := newTestWorker(t, 1, serve.Config{Shards: 1})
	coord1.Register("w1", w1.ts.URL)
	ts1 := httptest.NewServer(Handler(coord1))

	// The fast job settles first (waiting on it after the slow one would
	// block behind it on the single shard and settle both); the slow job
	// is still unsettled when the coordinator dies.
	fast := ghzBody(16, 8)
	fv, fstatus := postJob(t, ts1.URL, fast, true)
	if fstatus != http.StatusOK || fv.State != "done" {
		t.Fatalf("fast job: %d %+v", fstatus, fv)
	}
	slow := ghzBody(80000, 7)
	sv, _ := postJob(t, ts1.URL, slow, false)
	ts1.Close()
	coord1.Close()
	jl1.Close()

	// A crash mid-append leaves a torn final record behind.
	wal, err := os.OpenFile(filepath.Join(dir, "jobs.wal"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Write([]byte{64, 0, 0, 0, recDispatch, '{', '"'}); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	jl2, rec := openCoordJournal(t, dir)
	var foundSlow bool
	for _, r := range rec.Records {
		var e entry
		if err := json.Unmarshal(r.Payload, &e); err != nil {
			t.Fatalf("journal record %q: %v", r.Payload, err)
		}
		if r.Kind == recDispatch && e.ID == sv.ID {
			foundSlow = true
			if string(e.Payload) != slow {
				t.Fatalf("payload not verbatim:\njournal: %s\nsent:    %s", e.Payload, slow)
			}
			if e.Worker != "w1" || e.Remote == "" {
				t.Fatalf("routing not journaled: %+v", e)
			}
		}
	}
	if !foundSlow {
		t.Fatalf("unsettled job %s missing from the journal", sv.ID)
	}

	coord2 := mk(jl2)
	defer coord2.Close()
	n, err := coord2.Replay(rec)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d jobs, want only the unsettled one", n)
	}
	if got := coord2.workerURL("w1"); got != w1.ts.URL {
		t.Fatalf("restored worker URL %q, want %q", got, w1.ts.URL)
	}
	ts2 := httptest.NewServer(Handler(coord2))
	defer ts2.Close()
	view, status := getJob(t, ts2.URL, sv.ID, true)
	if status != http.StatusOK || view.State != "done" {
		t.Fatalf("restored job: status %d view %+v", status, view)
	}
	if _, status := getJob(t, ts2.URL, fv.ID, false); status != http.StatusNotFound {
		t.Fatalf("settled pre-crash job answered %d after restart, want 404", status)
	}
	nv, _ := postJob(t, ts2.URL, ghzBody(16, 9), true)
	if nv.ID == sv.ID || nv.ID == fv.ID {
		t.Fatalf("restored coordinator reissued ID %s", nv.ID)
	}
	if st := coord2.Stats(); st.Journal == nil || st.Journal.Replayed != 1 || st.Journal.Lag != 0 {
		t.Fatalf("journal stats after replay %+v, want replayed 1 and lag 0", st.Journal)
	}

	// Corrupt journals must refuse to replay, not silently forget.
	for name, corrupt := range map[string]func(*journal.Journal) error{
		"snapshot": func(jl *journal.Journal) error { return jl.Compact([]byte("{not json")) },
		"record":   func(jl *journal.Journal) error { return jl.Append(recDispatch, []byte("{not json")) },
	} {
		cdir := t.TempDir()
		jl, _ := openCoordJournal(t, cdir)
		if err := corrupt(jl); err != nil {
			t.Fatal(err)
		}
		jl.Close()
		jl, rec := openCoordJournal(t, cdir)
		c := mk(jl)
		_, err := c.Replay(rec)
		c.Close()
		if err == nil {
			t.Fatalf("corrupt %s replayed", name)
		}
	}
}

// TestCoordinatorJournalCompaction: a compacted coordinator journal
// replays from its snapshot plus the records after it — unsettled jobs
// from both, workers that joined and left, and an ID counter past
// every issued ID.
func TestCoordinatorJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	proc, err := core.NewCompactProcessor(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	jl1, _ := openCoordJournal(t, dir)
	coord1, err := NewCoordinator(CoordinatorConfig{Proc: proc, MonitorInterval: -1, Journal: jl1})
	if err != nil {
		t.Fatal(err)
	}
	w1 := newTestWorker(t, 1, serve.Config{Shards: 1})
	coord1.Register("w1", w1.ts.URL)
	ts1 := httptest.NewServer(Handler(coord1))
	defer ts1.Close()
	// Nobody polls an async job, so the coordinator holds it unsettled.
	a, _ := postJob(t, ts1.URL, ghzBody(16, 41), false)
	b, _ := postJob(t, ts1.URL, ghzBody(16, 42), true)
	if err := coord1.compact(); err != nil {
		t.Fatal(err)
	}
	c, _ := postJob(t, ts1.URL, ghzBody(16, 43), false)
	coord1.Register("w2", "http://127.0.0.1:1")
	if _, _, err := coord1.Drain("w2"); err != nil {
		t.Fatal(err)
	}
	coord1.Close()
	jl1.Close()

	jl2, rec := openCoordJournal(t, dir)
	if rec.Snapshot == nil || len(rec.Records) != 3 {
		t.Fatalf("recovered snapshot %q and %d records, want a snapshot and 3", rec.Snapshot, len(rec.Records))
	}
	coord2, err := NewCoordinator(CoordinatorConfig{Proc: proc, MonitorInterval: -1, Journal: jl2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if n, err := coord2.Replay(rec); err != nil || n != 2 {
		t.Fatalf("replayed %d jobs (err %v), want 2", n, err)
	}
	if coord2.workerURL("w1") != w1.ts.URL || coord2.workerURL("w2") != "" {
		t.Fatalf("restored workers %+v, want only w1", coord2.Stats().Workers)
	}
	ts2 := httptest.NewServer(Handler(coord2))
	defer ts2.Close()
	for _, id := range []string{a.ID, c.ID} {
		if view, status := getJob(t, ts2.URL, id, true); status != http.StatusOK || view.State != "done" {
			t.Fatalf("restored job %s: status %d view %+v", id, status, view)
		}
	}
	if _, status := getJob(t, ts2.URL, b.ID, false); status != http.StatusNotFound {
		t.Fatalf("settled job %s answered %d after restart, want 404", b.ID, status)
	}
	if nv, _ := postJob(t, ts2.URL, ghzBody(16, 44), false); nv.ID != "c-000004" {
		t.Fatalf("post-replay ID %s, want c-000004", nv.ID)
	}
}

// TestCoordinatorJournalConcurrentJobs: concurrent submissions through
// a journaled coordinator cost two records each (first dispatch and
// settlement) plus one per worker registration, and a restart after
// they all settled restores nothing.
func TestCoordinatorJournalConcurrentJobs(t *testing.T) {
	dir := t.TempDir()
	proc, err := core.NewCompactProcessor(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	jl, _ := openCoordJournal(t, dir)
	coord, err := NewCoordinator(CoordinatorConfig{Proc: proc, MonitorInterval: -1, Journal: jl})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.Register("w1", newTestWorker(t, 1, serve.Config{}).ts.URL)
	coord.Register("w2", newTestWorker(t, 1, serve.Config{}).ts.URL)
	ts := httptest.NewServer(Handler(coord))
	defer ts.Close()
	const jobs = 16
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		go func(i int) {
			resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(ghzBody(32, int64(60+i))))
			if err == nil {
				var view JobView
				err = json.NewDecoder(resp.Body).Decode(&view)
				resp.Body.Close()
				if err == nil && view.State != "done" {
					err = fmt.Errorf("job %s settled %q", view.ID, view.State)
				}
			}
			errs <- err
		}(i)
	}
	for i := 0; i < jobs; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := coord.Stats(); st.Dispatched != jobs || st.Journal.Appends != 2*jobs+2 || st.Journal.Lag != 0 {
		t.Fatalf("dispatched %d, journal %+v: want %d appends and no lag", st.Dispatched, st.Journal, 2*jobs+2)
	}
	jl.Close()
	jl2, rec := openCoordJournal(t, dir)
	coord2, err := NewCoordinator(CoordinatorConfig{Proc: proc, MonitorInterval: -1, Journal: jl2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if n, err := coord2.Replay(rec); err != nil || n != 0 {
		t.Fatalf("replayed %d settled jobs (err %v), want none", n, err)
	}
}

// TestRestartForgetsRunJobCells: the sweep-cell jobs of RunJob are
// not journaled — no client holds their IDs, and the sweep journal
// re-runs unfinished cells itself — so a coordinator restarted with
// one in flight restores no reservation nobody will release: once the
// worker goes idle, the tenant and worker gauges read zero.
func TestRestartForgetsRunJobCells(t *testing.T) {
	dir := t.TempDir()
	proc, err := core.NewCompactProcessor(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	jl1, _ := openCoordJournal(t, dir)
	coord1, err := NewCoordinator(CoordinatorConfig{Proc: proc, MonitorInterval: -1, Journal: jl1})
	if err != nil {
		t.Fatal(err)
	}
	w1 := newTestWorker(t, 1, serve.Config{Shards: 1})
	coord1.Register("w1", w1.ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	req := runJobReq(t, ghzBody(20000, 3))
	done := make(chan struct{})
	go func() {
		defer close(done)
		coord1.RunJob(ctx, nil, req)
	}()
	defer func() { cancel(); <-done }()
	// Crash once the dispatch is assigned: that is when a journaled
	// job's record lands.
	for deadline := time.Now().Add(30 * time.Second); ; {
		coord1.mu.Lock()
		assigned := len(coord1.workers["w1"].assigned)
		coord1.mu.Unlock()
		if assigned == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("RunJob never reached w1")
		}
		time.Sleep(time.Millisecond)
	}
	coord1.Close()
	jl1.Close()

	jl2, rec := openCoordJournal(t, dir)
	coord2, err := NewCoordinator(CoordinatorConfig{Proc: proc, MonitorInterval: -1, Journal: jl2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if n, err := coord2.Replay(rec); err != nil || n != 0 {
		t.Fatalf("replayed %d jobs (err %v), want none", n, err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if st := w1.svc.Stats(); st.Running == 0 && st.Queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never went idle")
		}
	}
	st := coord2.Stats()
	if len(st.Workers) != 1 || st.Workers[0].ID != "w1" || st.Workers[0].Assigned != 0 {
		t.Fatalf("restored workers %+v, want w1 with nothing assigned", st.Workers)
	}
	anon := st.Tenants[len(st.Tenants)-1]
	if anon.QueuedJobs != 0 || anon.RunningJobs != 0 || anon.InflightShots != 0 {
		t.Fatalf("restart left a reservation behind: %+v", anon)
	}
}

// TestCoordinatorJournalFailureIsLoud: a submission the coordinator
// cannot journal is refused with 503 unavailable, and the failed
// append is counted in /v1/stats and on /metrics.
func TestCoordinatorJournalFailureIsLoud(t *testing.T) {
	proc, err := core.NewCompactProcessor(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	jl, _ := openCoordJournal(t, t.TempDir())
	coord, err := NewCoordinator(CoordinatorConfig{Proc: proc, MonitorInterval: -1, Journal: jl})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.Register("w1", newTestWorker(t, 1, serve.Config{}).ts.URL)
	ts := httptest.NewServer(Handler(coord))
	defer ts.Close()
	if v, status := postJob(t, ts.URL, ghzBody(16, 1), true); status != http.StatusOK || v.State != "done" {
		t.Fatalf("journaled submit: status %d view %+v", status, v)
	}
	before := coord.Stats().Journal.Failures
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(ghzBody(16, 2)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	det, ok := httpapi.Decode(body)
	if resp.StatusCode != http.StatusServiceUnavailable || !ok || det.Code != httpapi.CodeUnavailable {
		t.Fatalf("status %d body %s, want 503 %s", resp.StatusCode, body, httpapi.CodeUnavailable)
	}
	st := coord.Stats()
	if st.Journal.Failures <= before || st.Journal.Lag != 0 {
		t.Fatalf("journal stats %+v, want failures above %d and no lag", st.Journal, before)
	}
	if anon := st.Tenants[len(st.Tenants)-1]; anon.QueuedJobs != 0 || anon.InflightShots != 0 {
		t.Fatalf("refused submission left a reservation: %+v", anon)
	}
	var b metrics.Buffer
	coord.WriteMetrics(&b)
	var out strings.Builder
	if _, err := b.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\nquditd_journal_failures_total %d\n", st.Journal.Failures); !strings.Contains(out.String(), want) {
		t.Fatalf("/metrics lacks %q:\n%s", want, out.String())
	}
}

// TestDispatchRetriesTransientErrors pins the retry policy: transient
// 5xx from a worker is retried with backoff until it heals, while a
// 4xx rejection fails on the first attempt.
func TestDispatchRetriesTransientErrors(t *testing.T) {
	clk := newFakeClock()
	proc, err := core.NewCompactProcessor(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := newTestWorker(t, 1, serve.Config{})
	h := serve.NewHandler(w.svc)
	var posts atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(wr http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && posts.Add(1) <= 2 {
			http.Error(wr, `{"error":"transient"}`, http.StatusBadGateway)
			return
		}
		h.ServeHTTP(wr, r)
	}))
	defer flaky.Close()

	coord, err := NewCoordinator(CoordinatorConfig{
		Proc:            proc,
		MonitorInterval: -1,
		DispatchBackoff: 2 * time.Millisecond,
		now:             clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.Register("w1", flaky.URL)
	ts := httptest.NewServer(Handler(coord))
	defer ts.Close()

	view, status := postJob(t, ts.URL, ghzBody(64, 31), true)
	if status != http.StatusOK || view.State != "done" {
		t.Fatalf("submit through flaky worker: status %d view %+v", status, view)
	}
	if got := posts.Load(); got < 3 {
		t.Fatalf("dispatch attempts = %d, want >= 3 (two 502s then success)", got)
	}

	// Permanent rejection: no retries burned.
	var rejects atomic.Int32
	reject := httptest.NewServer(http.HandlerFunc(func(wr http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			rejects.Add(1)
			http.Error(wr, `{"error":"no"}`, http.StatusBadRequest)
			return
		}
		h.ServeHTTP(wr, r)
	}))
	defer reject.Close()
	coord2, err := NewCoordinator(CoordinatorConfig{
		Proc:            proc,
		MonitorInterval: -1,
		DispatchBackoff: 2 * time.Millisecond,
		now:             clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	coord2.Register("w1", reject.URL)
	ts2 := httptest.NewServer(Handler(coord2))
	defer ts2.Close()
	if _, status := postJob(t, ts2.URL, ghzBody(64, 32), false); status != http.StatusBadGateway {
		t.Fatalf("rejected dispatch surfaced %d", status)
	}
	if got := rejects.Load(); got != 1 {
		t.Fatalf("permanent rejection retried: %d attempts", got)
	}
}

// buildQuditd compiles the real daemon once per test binary for the
// process-level scenario.
func buildQuditd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "quditd")
	cmd := exec.Command("go", "build", "-o", bin, "quditkit/cmd/quditd")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building quditd: %v\n%s", err, out)
	}
	return bin
}

// TestChaosProcessFleet runs the crash scenarios against real quditd
// processes via chaos.Fleet: kill -9 the coordinator mid-queue and
// restart it from its journal, then kill -9 a worker and join a
// fresh one during a running sweep — all results byte-identical to the
// in-process standalone references, zero jobs or cells dropped.
func TestChaosProcessFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real quditd processes")
	}
	bin := buildQuditd(t)
	fl := chaos.NewFleet(bin)
	fl.Dir = t.TempDir()
	defer fl.Close()

	addr := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		a := ln.Addr().String()
		ln.Close()
		return a
	}
	pc, p1, p2, p3 := addr(), addr(), addr(), addr()
	jdir := t.TempDir()

	coordArgs := []string{"-addr", pc, "-role", "coordinator", "-seed", "1",
		"-journal", jdir, "-heartbeat-ttl", "2s"}
	workerArgs := func(addr, id string) []string {
		return []string{"-addr", addr, "-role", "worker", "-coordinator", "http://" + pc,
			"-id", id, "-heartbeat", "200ms", "-seed", "1", "-shards", "1"}
	}
	if err := fl.Start("coord", coordArgs...); err != nil {
		t.Fatal(err)
	}
	if err := chaos.WaitReady("http://"+pc+"/v1/stats", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := fl.Start("w1", workerArgs(p1, "w1")...); err != nil {
		t.Fatal(err)
	}
	if err := fl.Start("w2", workerArgs(p2, "w2")...); err != nil {
		t.Fatal(err)
	}
	waitWorkers := func(n int) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get("http://" + pc + "/v1/stats")
			if err == nil {
				var st Stats
				alive := 0
				if json.NewDecoder(resp.Body).Decode(&st) == nil {
					for _, row := range st.Workers {
						if row.Alive && !row.Draining {
							alive++
						}
					}
				}
				resp.Body.Close()
				if alive >= n {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("fleet never reached %d live workers", n)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	waitWorkers(2)

	// Phase 1: coordinator kill -9 mid-queue, restart from its journal.
	var ids []string
	var bodies []string
	for i := int64(0); i < 3; i++ {
		body := ghzBody(65536, 9000+i)
		bodies = append(bodies, body)
		view, status := postJob(t, "http://"+pc, body, false)
		if status != http.StatusOK && status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, status)
		}
		ids = append(ids, view.ID)
	}
	if err := fl.Kill("coord"); err != nil {
		t.Fatal(err)
	}
	if err := fl.Start("coord", coordArgs...); err != nil {
		t.Fatal(err)
	}
	if err := chaos.WaitReady("http://"+pc+"/v1/stats", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		view, status := getJob(t, "http://"+pc, id, true)
		if status != http.StatusOK || view.State != "done" {
			t.Fatalf("job %s after kill -9: status %d state %q err %q", id, status, view.State, view.Error)
		}
		ref := standaloneRef(t, bodies[i])
		if got := resultBytes(t, view); string(got) != string(ref) {
			t.Fatalf("job %s: bytes diverge after coordinator crash\ngot: %s\nref: %s", id, got, ref)
		}
	}

	// Phase 2: kill -9 a worker and join a fresh one mid-sweep.
	sweepBody := `{"kind":"rb","backend":"trajectory","shots":4096,"seed":11,` +
		`"noise":{"depol1":0.04},"rb":{"dim":3,"lengths":[1,2,4,8],"sequences":4}}`
	var sweepReq experiment.SweepRequest
	if err := json.Unmarshal([]byte(sweepBody), &sweepReq); err != nil {
		t.Fatal(err)
	}
	refWorker := newTestWorker(t, 1, serve.Config{})
	mgrRef, err := experiment.NewManager(experiment.ServeRunner{Service: refWorker.svc}, experiment.Config{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mgrRef.Close()
	refID, err := mgrRef.Submit(sweepReq)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	refView, err := mgrRef.Await(ctx, refID)
	if err != nil || refView.Aggregate == nil {
		t.Fatalf("reference sweep: %v %+v", err, refView)
	}
	refAgg, _ := json.Marshal(refView.Aggregate)

	resp, err := http.Post("http://"+pc+"/v1/sweeps", "application/json", strings.NewReader(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	var sview experiment.SweepView
	if err := json.NewDecoder(resp.Body).Decode(&sview); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get("http://" + pc + "/v1/sweeps/" + sview.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur experiment.SweepView
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cur.SettledCells >= 2 || cur.State != experiment.SweepRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("process sweep never settled its first cells")
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err := fl.Kill("w2"); err != nil {
		t.Fatal(err)
	}
	if err := fl.Start("w3", workerArgs(p3, "w3")...); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get("http://" + pc + "/v1/sweeps/" + sview.ID + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	var final experiment.SweepView
	err = json.NewDecoder(resp.Body).Decode(&final)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if final.State != experiment.SweepCompleted || final.FailedCells != 0 || final.DoneCells != final.TotalCells {
		t.Fatalf("sweep after worker kill/join: %+v", final)
	}
	if final.Aggregate == nil || final.AggregateError != "" {
		t.Fatalf("aggregate missing: %+v", final)
	}
	agg, _ := json.Marshal(final.Aggregate)
	if string(agg) != string(refAgg) {
		t.Fatalf("aggregate bytes diverge after worker kill/join\ngot: %s\nref: %s", agg, refAgg)
	}

	// Graceful teardown: workers drain cleanly through the coordinator.
	if err := fl.Stop("w1", 30*time.Second); err != nil {
		t.Fatalf("worker drain-stop: %v", err)
	}
	if err := fl.Stop("coord", 30*time.Second); err != nil {
		t.Fatalf("coordinator stop: %v", err)
	}
}
