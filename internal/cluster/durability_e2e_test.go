package cluster

// The durability scenario: a standalone quditd running with -journal is
// kill -9'd mid-queue and mid-sweep, restarted on the same directory,
// and must finish every accepted job and sweep with results
// byte-identical to an undisturbed in-process run. This is the
// end-to-end proof behind internal/journal — real processes, real
// SIGKILL, no drain hooks — run across several fault seeds.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"quditkit/internal/chaos"
	"quditkit/internal/experiment"
	"quditkit/internal/serve"
)

// durabilityAddr reserves a loopback port the daemon (and its restart)
// will bind.
func durabilityAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a := ln.Addr().String()
	ln.Close()
	return a
}

// journalReplayed decodes the "journal" gauge block from /v1/stats and
// returns its replayed counter.
func journalReplayed(t *testing.T, base string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Journal *struct {
			Replayed int64 `json:"replayed"`
		} `json:"journal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Journal == nil {
		t.Fatal("stats has no journal block despite -journal")
	}
	return st.Journal.Replayed
}

// TestDurabilityStandaloneKill9 crashes a journaled standalone quditd
// twice per seed — once with three slow jobs queued, once with an RB
// sweep partially settled — restarts it on the same journal directory,
// and byte-compares every count histogram and the sweep aggregate
// against undisturbed in-process references. Zero accepted work may be
// dropped, and nothing settled may run twice into a different answer.
func TestDurabilityStandaloneKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real quditd processes")
	}
	bin := buildQuditd(t)

	for _, seed := range chaosSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			fl := chaos.NewFleet(bin)
			fl.Dir = t.TempDir()
			defer fl.Close()

			addr := durabilityAddr(t)
			base := "http://" + addr
			jdir := filepath.Join(t.TempDir(), "journal")
			// One shard: jobs run strictly one at a time, so a kill a
			// few milliseconds after submission lands mid-queue.
			args := []string{"-addr", addr, "-seed", "1", "-journal", jdir, "-shards", "1"}

			if err := fl.Start("node", args...); err != nil {
				t.Fatal(err)
			}
			if err := chaos.WaitReady(base+"/v1/stats", 15*time.Second); err != nil {
				t.Fatal(err)
			}

			// Phase 1: kill -9 mid-queue. Trajectory jobs at these shot
			// counts take long enough that none settles before the kill
			// lands, so all three must survive into the restart.
			var ids, bodies []string
			for i := int64(0); i < 3; i++ {
				body := ghzBody(65536, int64(seed)*100+i)
				bodies = append(bodies, body)
				view, status := postJob(t, base, body, false)
				if status != http.StatusOK && status != http.StatusAccepted {
					t.Fatalf("submit %d: status %d", i, status)
				}
				ids = append(ids, view.ID)
			}
			if err := fl.Kill("node"); err != nil {
				t.Fatal(err)
			}
			if err := fl.Start("node", args...); err != nil {
				t.Fatal(err)
			}
			if err := chaos.WaitReady(base+"/v1/stats", 15*time.Second); err != nil {
				t.Fatal(err)
			}
			if n := journalReplayed(t, base); n == 0 {
				t.Error("restart replayed no jobs despite a loaded queue at the crash")
			}
			for i, id := range ids {
				view, status := getJob(t, base, id, true)
				if status != http.StatusOK || view.State != "done" {
					t.Fatalf("job %s after kill -9: status %d state %q err %q", id, status, view.State, view.Error)
				}
				ref := standaloneRef(t, bodies[i])
				if got := resultBytes(t, view); string(got) != string(ref) {
					t.Fatalf("job %s: bytes diverge after crash\ngot: %s\nref: %s", id, got, ref)
				}
			}

			// Phase 2: kill -9 mid-sweep, after some cells have settled,
			// so the restart must fold recorded settlements together with
			// re-run cells into the same aggregate bytes.
			sweepBody := fmt.Sprintf(`{"kind":"rb","backend":"trajectory","shots":4096,"seed":%d,`+
				`"noise":{"depol1":0.04},"rb":{"dim":3,"lengths":[1,2,4,8],"sequences":4}}`, seed)
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

			resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(sweepBody))
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
				resp, err := http.Get(base + "/v1/sweeps/" + sview.ID)
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
					t.Fatal("sweep never settled its first cells")
				}
				time.Sleep(25 * time.Millisecond)
			}
			if err := fl.Kill("node"); err != nil {
				t.Fatal(err)
			}
			if err := fl.Start("node", args...); err != nil {
				t.Fatal(err)
			}
			if err := chaos.WaitReady(base+"/v1/stats", 15*time.Second); err != nil {
				t.Fatal(err)
			}

			resp, err = http.Get(base + "/v1/sweeps/" + sview.ID + "?wait=1")
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
				t.Fatalf("sweep after kill -9/restart: %+v", final)
			}
			if final.Aggregate == nil || final.AggregateError != "" {
				t.Fatalf("aggregate missing after resume: %+v", final)
			}
			agg, _ := json.Marshal(final.Aggregate)
			if string(agg) != string(refAgg) {
				t.Fatalf("aggregate bytes diverge after crash-resume\ngot: %s\nref: %s", agg, refAgg)
			}

			// The resumed daemon shuts down cleanly, settling the journal.
			if err := fl.Stop("node", 30*time.Second); err != nil {
				t.Fatalf("graceful stop after resume: %v", err)
			}
		})
	}
}
