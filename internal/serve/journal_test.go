package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"quditkit/internal/core"
	"quditkit/internal/journal"
	"quditkit/internal/metrics"
	"quditkit/internal/noise"
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

	// Shards=1, batch=1, and no worker drain opportunity: enqueue with
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
		Version: jobSnapshotVersion,
		NextID:  2,
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
// second collapses onto the result cache (or in-batch dedupe), the
// mechanism that also absorbs a job whose settle record was lost to a
// compaction race.
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
	s, err := New(testProcessor(t), Config{Journal: jl, Shards: 1, QueueDepth: 1, BatchSize: 1})
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
