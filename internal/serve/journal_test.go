package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"quditkit/internal/core"
	"quditkit/internal/httpapi"
	"quditkit/internal/journal"
	"quditkit/internal/metrics"
	"quditkit/internal/noise"
	"quditkit/internal/tenant"
)

// wirePayload renders a distinct, valid JobRequest body: k X-gates on
// one qutrit, so different k values have different content addresses.
func wirePayload(k, shots int) []byte {
	ops := ""
	for i := 0; i <= k; i++ {
		if i > 0 {
			ops += ","
		}
		ops += `{"gate":"x","targets":[0]}`
	}
	return []byte(fmt.Sprintf(`{"circuit":{"dims":[3],"ops":[%s]},"shots":%d}`, ops, shots))
}

// enqueueWire decodes a wire payload the way the HTTP handler does and
// submits it through the journaled path.
func enqueueWire(t *testing.T, s *Service, payload []byte) JobID {
	t.Helper()
	var req JobRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		t.Fatal(err)
	}
	circ, err := BuildCircuit(req.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := req.Options(s.proc)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.EnqueueJournaled(nil, payload, circ, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// openJournal opens (or reopens) a jobs journal in dir.
func openJournal(t *testing.T, dir string) (*journal.Journal, journal.Recovery) {
	t.Helper()
	jl, rec, err := journal.Open(dir, "jobs")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	return jl, rec
}

// TestJournalReplayRestoresUnsettledJobs is the core durability round
// trip: jobs admitted but never run (service torn down abruptly) are
// replayed by a second service under their original IDs, produce the
// same results a direct submission would, and the ID counter resumes
// past every issued ID.
func TestJournalReplayRestoresUnsettledJobs(t *testing.T) {
	dir := t.TempDir()
	jl, _ := openJournal(t, dir)

	// Shards=1 and no worker drain opportunity: enqueue with
	// the worker wedged behind a slow first job is overkill here —
	// instead, journal admissions and then simulate a crash by simply
	// abandoning the service without Close (its workers may settle some
	// jobs; settled ones must then be skipped on replay, which is also
	// correct — so pin the crash point by closing the journal first).
	s := newTestService(t, Config{Journal: jl, Shards: 1})
	id1 := enqueueWire(t, s, wirePayload(1, 64))
	id2 := enqueueWire(t, s, wirePayload(2, 64))
	if _, err := s.Await(context.Background(), id1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Await(context.Background(), id2); err != nil {
		t.Fatal(err)
	}
	// A job's settle record is appended after its waiters wake; the
	// lag gauge drops once it has landed.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Journal.Lag != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("settle records never landed: %+v", s.Stats().Journal)
		}
		time.Sleep(time.Millisecond)
	}

	// Reopen: both jobs settled, so replay restores nothing but the
	// counter must still resume past j-000002.
	jl2, rec := openJournal(t, dir)
	s2 := newTestService(t, Config{Journal: jl2, Shards: 1})
	n, err := s2.Replay(rec)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("replayed %d settled jobs, want 0", n)
	}
	id3, err := s2.Enqueue(ghz(t), core.WithShots(8))
	if err != nil {
		t.Fatal(err)
	}
	if id3 != "j-000003" {
		t.Fatalf("post-replay ID = %s, want j-000003 (counter resumed)", id3)
	}
}

// TestJournalReplayRunsCrashedJobs covers the mid-queue crash: admit
// records exist, no settle records (the "service" never ran them), and
// a fresh service replays and executes them byte-identically to a
// direct run.
func TestJournalReplayRunsCrashedJobs(t *testing.T) {
	dir := t.TempDir()
	jl, _ := openJournal(t, dir)

	// Forge the crash state directly: admit records with no settles,
	// exactly what a kill -9 after admission leaves behind.
	for i, k := range []int{1, 2} {
		rec, _ := json.Marshal(jobAdmitRecord{
			ID:      fmt.Sprintf("j-%06d", i+1),
			Payload: wirePayload(k, 64),
		})
		if err := jl.Append(recJobAdmit, rec); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	jl2, rec := openJournal(t, dir)
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want 2", len(rec.Records))
	}
	s := newTestService(t, Config{Journal: jl2, Shards: 1})
	n, err := s.Replay(rec)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d, want 2", n)
	}
	res, err := s.Await(context.Background(), JobID("j-000001"))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := testProcessor(t).SubmitOne(shiftCircuit(t, 1), core.WithShots(64))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Counts.Equal(direct.Counts) {
		t.Errorf("replayed counts %v != direct counts %v", res.Counts, direct.Counts)
	}
	if _, err := s.Await(context.Background(), JobID("j-000002")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Journal == nil || st.Journal.Replayed != 2 {
		t.Fatalf("stats journal block = %+v, want replayed=2", st.Journal)
	}
}

// TestJournalReplaySkipsSettledBetweenSnapshotAndCrash pins the
// compaction race: the snapshot lists a job as unsettled, but a settle
// record in the WAL tail proves it finished before the crash. Replay
// must skip it — never re-execute settled work.
func TestJournalReplaySkipsSettledBetweenSnapshotAndCrash(t *testing.T) {
	dir := t.TempDir()
	jl, _ := openJournal(t, dir)
	snap, _ := json.Marshal(jobSnapshot{
		Header: journal.Header{Version: jobSnapshotVersion, NextID: 2},
		Jobs: []jobAdmitRecord{
			{ID: "j-000001", Payload: wirePayload(1, 64)},
			{ID: "j-000002", Payload: wirePayload(2, 64)},
		},
	})
	if err := jl.Compact(snap); err != nil {
		t.Fatal(err)
	}
	set, _ := json.Marshal(jobSettleRecord{ID: "j-000001", State: "done"})
	if err := jl.Append(recJobSettle, set); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	jl2, rec := openJournal(t, dir)
	s := newTestService(t, Config{Journal: jl2, Shards: 1})
	n, err := s.Replay(rec)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d, want 1 (j-000001 settled)", n)
	}
	if _, err := s.Status(JobID("j-000001")); err == nil {
		t.Fatal("settled job was replayed")
	}
	if _, err := s.Await(context.Background(), JobID("j-000002")); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReplayDuplicatesAbsorbedByCache replays two admissions of
// the same content address and checks only one simulation happens: the
// second collapses onto the result cache, the mechanism that also
// absorbs a job whose settle record was lost to a compaction race.
func TestJournalReplayDuplicatesAbsorbedByCache(t *testing.T) {
	dir := t.TempDir()
	jl, _ := openJournal(t, dir)
	for i := 0; i < 2; i++ {
		rec, _ := json.Marshal(jobAdmitRecord{
			ID:      fmt.Sprintf("j-%06d", i+1),
			Payload: wirePayload(3, 64),
		})
		if err := jl.Append(recJobAdmit, rec); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	jl2, rec := openJournal(t, dir)
	s := newTestService(t, Config{Journal: jl2, Shards: 1})
	n, err := s.Replay(rec)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d, want 2", n)
	}
	r1, err := s.Await(context.Background(), JobID("j-000001"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Await(context.Background(), JobID("j-000002"))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Counts.Equal(r2.Counts) {
		t.Error("duplicate replays disagree")
	}
	if st := s.Stats(); st.CacheMisses > 1 {
		t.Errorf("cache misses = %d, want ≤1 (duplicate re-simulated)", st.CacheMisses)
	}
}

// TestJournalCompactionAndLagGauges drives enough settles through a
// tiny compaction threshold to force automatic compaction, then checks
// the gauges and that a replay after compaction still resumes the ID
// counter from the snapshot.
func TestJournalCompactionAndLagGauges(t *testing.T) {
	dir := t.TempDir()
	jl, _ := openJournal(t, dir)
	s := newTestService(t, Config{Journal: jl, Shards: 1, JournalCompactEvery: 4})
	var last JobID
	for k := 1; k <= 6; k++ {
		last = enqueueWire(t, s, wirePayload(k, 16))
	}
	if _, err := s.Await(context.Background(), last); err != nil {
		t.Fatal(err)
	}
	// Let the remaining settles (and their journal appends) land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if st.Journal != nil && st.Journal.Lag == 0 && st.Journal.Compactions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal never compacted: %+v", st.Journal)
		}
		time.Sleep(10 * time.Millisecond)
	}

	jl2, rec := openJournal(t, dir)
	s2 := newTestService(t, Config{Journal: jl2, Shards: 1})
	if n, err := s2.Replay(rec); err != nil || n != 0 {
		t.Fatalf("replay after drain = (%d, %v), want (0, nil)", n, err)
	}
	id, err := s2.Enqueue(ghz(t), core.WithShots(8))
	if err != nil {
		t.Fatal(err)
	}
	if id != "j-000007" {
		t.Fatalf("post-compaction ID = %s, want j-000007", id)
	}
}

// TestJournalAdmissionFullQueueNotJournaled: a rejected (queue-full)
// submission must leave no durable trace, or restarts would replay
// jobs the client was told were refused.
func TestJournalAdmissionFullQueueNotJournaled(t *testing.T) {
	dir := t.TempDir()
	jl, _ := openJournal(t, dir)
	s, err := New(testProcessor(t), Config{Journal: jl, Shards: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Wedge the worker with a slow job, fill the depth-1 queue, then
	// overflow it.
	slow, err := s.Enqueue(ghz(t), core.WithShots(100000),
		core.WithBackend(core.Trajectory), core.WithNoise(noise.Model{Damping: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	var ids []JobID
	overflowed := false
	for k := 1; k <= 50 && !overflowed; k++ {
		id, err := s.EnqueueJournaled(nil, wirePayload(k, 16), shiftCircuit(t, k), core.WithShots(16))
		switch {
		case err == nil:
			ids = append(ids, id)
		case errors.Is(err, ErrQueueFull):
			overflowed = true
		default:
			t.Fatal(err)
		}
	}
	if !overflowed {
		t.Skip("queue never filled; worker drained too fast")
	}
	lag := s.Stats().Journal.Lag
	if lag != len(ids) {
		t.Fatalf("journal lag %d != accepted journaled jobs %d", lag, len(ids))
	}
	_ = s.CancelJob(slow)
}

// TestReplayRequiresJournal: Replay on an unjournaled service is a
// loud misuse error, not a silent no-op.
func TestReplayRequiresJournal(t *testing.T) {
	s := newTestService(t, Config{})
	if _, err := s.Replay(journal.Recovery{}); err == nil {
		t.Fatal("Replay without journal succeeded")
	}
}

// TestReplayCorruptPayloadFailsLoudly: a journaled payload that no
// longer decodes must fail Replay, not silently drop the job.
func TestReplayCorruptPayloadFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	jl, _ := openJournal(t, dir)
	rec, _ := json.Marshal(jobAdmitRecord{ID: "j-000001", Payload: []byte(`{"circuit":`)})
	if err := jl.Append(recJobAdmit, rec); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	jl2, rcv := openJournal(t, dir)
	s := newTestService(t, Config{Journal: jl2})
	if _, err := s.Replay(rcv); err == nil {
		t.Fatal("corrupt payload replayed silently")
	}
}

// TestJournalFailuresRender: an append the journal refuses — here one
// after Close — is counted in /v1/stats and rendered on /metrics.
func TestJournalFailuresRender(t *testing.T) {
	jl, _ := openJournal(t, t.TempDir())
	s := newTestService(t, Config{Journal: jl, Shards: 1})
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jl.Append(recJobSettle, []byte("{}")); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if st := s.Stats(); st.Journal == nil || st.Journal.Failures != 1 {
		t.Fatalf("journal stats = %+v, want failures 1", st.Journal)
	}
	var b metrics.Buffer
	s.WriteMetrics(&b)
	var out strings.Builder
	if _, err := b.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\nquditd_journal_failures_total 1\n") {
		t.Fatalf("/metrics lacks the failure counter:\n%s", out.String())
	}
}

// TestJournalClosedAnswers503: a submission the journal cannot record
// is the server's fault, so POST /v1/jobs answers 503 unavailable (a
// transient code clients and coordinators retry elsewhere), not 400,
// and nothing is left admitted.
func TestJournalClosedAnswers503(t *testing.T) {
	jl, _ := openJournal(t, t.TempDir())
	s := newTestService(t, Config{Journal: jl, Shards: 1})
	url := newHandlerServer(t, s)
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(wirePayload(1, 16)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	det, ok := httpapi.Decode(body)
	if resp.StatusCode != http.StatusServiceUnavailable || !ok || det.Code != httpapi.CodeUnavailable {
		t.Fatalf("status %d body %s, want 503 %s", resp.StatusCode, body, httpapi.CodeUnavailable)
	}
	if st := s.Stats(); st.Enqueued != 0 || st.Queued != 0 || st.Journal.Lag != 0 {
		t.Fatalf("refused submission left state behind: %+v", st)
	}
}

// copyFixture copies a committed journal fixture into a fresh
// directory: Replay compacts the journal it reads, and the fixture
// must stay as it was written.
func copyFixture(t *testing.T, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join("testdata", "journal", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// fixtureSlow is the payload of the fixture's first unsettled job:
// 50,000 noisy trajectory shots, long enough to hold the only shard
// while the test inspects the jobs queued behind it.
const fixtureSlow = `{"circuit":{"dims":[3,3,3],"ops":[{"gate":"dft","targets":[0]},{"gate":"csum","targets":[0,1]},{"gate":"csum","targets":[0,2]}]},"backend":"trajectory","noise":{"depol1":0.02},"shots":50000,"seed":5}`

// TestJournalFixtureReplays pins the jobs journal's on-disk format.
// testdata/journal holds a journal written by an earlier build: a
// snapshot (next ID 3, unsettled j-000002 and j-000003), then a WAL
// tail that admits j-000004 for tenant acme, settles j-000003 and
// admits j-000005. An upgraded node must replay exactly j-000002,
// j-000004 and j-000005 with their verbatim payloads and tenants, and
// issue j-000006 next.
func TestJournalFixtureReplays(t *testing.T) {
	reg, err := tenant.Load([]byte(`{"tenants": [{"name": "acme", "api_key": "k-acme"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	jl, rec := openJournal(t, copyFixture(t, "jobs.wal", "jobs.snap"))
	s := newTestService(t, Config{Journal: jl, Shards: 1, Tenants: reg})
	n, err := s.Replay(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := map[JobID]journaledJob{
		"j-000002": {payload: []byte(fixtureSlow)},
		"j-000004": {payload: wirePayload(3, 32), tenant: "acme"},
		"j-000005": {payload: wirePayload(4, 16)},
	}
	if n != len(want) {
		t.Fatalf("replayed %d jobs, want %d", n, len(want))
	}
	// j-000002 holds the only shard, so nothing has settled yet.
	s.mu.Lock()
	for id, w := range want {
		got, ok := s.journaled[id]
		if !ok || string(got.payload) != string(w.payload) || got.tenant != w.tenant {
			s.mu.Unlock()
			t.Fatalf("replayed %s = %q (tenant %q), want %q (tenant %q)", id, got.payload, got.tenant, w.payload, w.tenant)
		}
		if acct := s.jobs[id].acct.Name(); (w.tenant == "" && acct != tenant.AnonymousName) || (w.tenant != "" && acct != w.tenant) {
			s.mu.Unlock()
			t.Fatalf("replayed %s runs as %q, want tenant %q", id, acct, w.tenant)
		}
	}
	if len(s.journaled) != len(want) {
		s.mu.Unlock()
		t.Fatalf("replay left %d journaled jobs, want %d", len(s.journaled), len(want))
	}
	s.mu.Unlock()

	if err := s.CancelJob("j-000002"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []JobID{"j-000004", "j-000005"} {
		if _, err := s.Await(context.Background(), id); err != nil {
			t.Fatalf("replayed %s: %v", id, err)
		}
	}
	for _, id := range []JobID{"j-000001", "j-000003"} {
		if _, err := s.Status(id); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("settled %s replayed: %v", id, err)
		}
	}
	id, err := s.Enqueue(ghz(t), core.WithShots(8))
	if err != nil {
		t.Fatal(err)
	}
	if id != "j-000006" {
		t.Fatalf("post-replay ID = %s, want j-000006", id)
	}
}

// TestJournalMetricsBlock pins the jobs journal's /metrics families —
// names, help text, types and order — as a standalone node has always
// served them.
func TestJournalMetricsBlock(t *testing.T) {
	jl, _ := openJournal(t, t.TempDir())
	s := newTestService(t, Config{Journal: jl, Shards: 1})
	enqueueWire(t, s, wirePayload(1, 16))
	var b metrics.Buffer
	s.WriteMetrics(&b)
	var out strings.Builder
	if _, err := b.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "quditd_journal_") {
			got = append(got, strings.TrimRight(line, "0123456789"))
		}
	}
	want := []string{
		"# HELP quditd_journal_wal_bytes Write-ahead log size.",
		"# TYPE quditd_journal_wal_bytes gauge",
		"quditd_journal_wal_bytes ",
		"# HELP quditd_journal_tail_records WAL records not yet folded into a snapshot.",
		"# TYPE quditd_journal_tail_records gauge",
		"quditd_journal_tail_records ",
		"# HELP quditd_journal_lag Journaled jobs not yet settled.",
		"# TYPE quditd_journal_lag gauge",
		"quditd_journal_lag ",
		"# HELP quditd_journal_appends_total Journal records fsynced.",
		"# TYPE quditd_journal_appends_total counter",
		"quditd_journal_appends_total ",
		"# HELP quditd_journal_compactions_total Journal snapshot rewrites.",
		"# TYPE quditd_journal_compactions_total counter",
		"quditd_journal_compactions_total ",
		"# HELP quditd_journal_failures_total Journal appends and compactions that failed.",
		"# TYPE quditd_journal_failures_total counter",
		"quditd_journal_failures_total ",
		"# HELP quditd_journal_replayed Jobs restored from the journal at startup.",
		"# TYPE quditd_journal_replayed gauge",
		"quditd_journal_replayed ",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("journal families:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
