package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"quditkit/internal/circuit"
	"quditkit/internal/core"
	"quditkit/internal/journal"
	"quditkit/internal/tenant"
)

// Journal record kinds for the job service's write-ahead log.
const (
	recJobAdmit  uint8 = 1 // a job entered the queue: {id, payload}
	recJobSettle uint8 = 2 // a job reached a terminal state: {id, state}
)

// jobSnapshotVersion guards the compacted snapshot schema.
const jobSnapshotVersion = 1

// jobAdmitRecord is the durable form of one admission: the issued ID,
// the owning tenant, and the verbatim wire payload, so replay
// re-enqueues exactly what the client sent under the same account. It
// doubles as the per-job entry of jobSnapshot. Tenant is empty for
// anonymous submissions (and on records written before tenancy).
type jobAdmitRecord struct {
	ID      string          `json:"id"`
	Tenant  string          `json:"tenant,omitempty"`
	Payload json.RawMessage `json:"payload"`
}

// journaledJob is the in-memory working-set entry of one unsettled
// journaled job — what the next compaction snapshot folds in.
type journaledJob struct {
	payload []byte
	tenant  string
}

// jobSettleRecord marks a journaled job as terminal; replay skips it.
type jobSettleRecord struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// jobSnapshot is the compacted journal state: the ID counter plus every
// journaled job not yet settled at compaction time.
type jobSnapshot struct {
	Version int              `json:"version"`
	NextID  uint64           `json:"next_id"`
	Jobs    []jobAdmitRecord `json:"jobs"`
}

// JournalStats extends the raw journal gauges with the service-level
// view, served as the "journal" block of GET /v1/stats.
type JournalStats struct {
	journal.Stats
	// Lag counts journaled jobs not yet settled — the work a crash
	// right now would replay on restart.
	Lag int `json:"lag"`
	// Replayed counts jobs this process restored from the journal at
	// startup.
	Replayed int64 `json:"replayed"`
}

// EnqueueJournaled is Enqueue for submissions that must survive a
// crash: before the job becomes runnable, its ID and the verbatim wire
// payload are fsynced to the configured journal, so a restarted service
// can Replay it exactly as the client sent it. The fast paths that
// settle synchronously (cache hit, already-cancelled context) journal
// nothing — the caller observes the terminal state in the same call.
// With no journal configured it behaves exactly like Enqueue. A journal
// write failure rejects the submission: an admission that cannot be
// made durable is refused, not half-accepted. A nil acct selects the
// service's anonymous account; the tenant's name rides on the admit
// record so replay restores per-tenant accounting.
func (s *Service) EnqueueJournaled(acct *tenant.Account, payload []byte, c *circuit.Circuit, opts ...core.RunOption) (JobID, error) {
	return s.enqueue(acct, payload, c, opts)
}

// admitJournaledLocked is the durable leg of enqueue's queue path,
// entered with s.mu held (and released on every return) after the
// capacity check and the tenant quota reservation both passed.
// Because all queue pushes happen under s.mu, that capacity check
// makes the later forcePush safe, so the order is: fsync the admit
// record, then the guaranteed push — a job is never runnable before
// it is durable, and never durable-then-dropped. A journal failure
// unwinds the tenant reservation.
func (s *Service) admitJournaledLocked(sh *shardQueue, j *job, payload []byte) (JobID, error) {
	id := s.issueIDLocked(j)
	rec := jobAdmitRecord{ID: string(id), Payload: payload}
	if name := j.acct.Name(); name != tenant.AnonymousName {
		rec.Tenant = name
	}
	data, err := json.Marshal(rec)
	if err == nil {
		err = s.cfg.Journal.Append(recJobAdmit, data)
	}
	if err != nil {
		delete(s.jobs, id)
		s.mu.Unlock()
		j.acct.CancelAdmission(j.shots)
		j.cancel()
		return "", fmt.Errorf("serve: journaling admission: %w", err)
	}
	s.journaled[id] = journaledJob{payload: payload, tenant: rec.Tenant}
	s.queuedGauge.Add(1)
	s.journalLag.Add(1)
	sh.forcePush(j)
	s.mu.Unlock()
	s.enqueued.Add(1)
	return id, nil
}

// journalSettle makes a journaled job's terminal state durable and
// triggers compaction when the WAL tail has grown past the configured
// threshold. Append and Compact errors do not fail the job: it already
// settled in memory, and the worst outcome of a lost settle record is
// one benign, deterministic re-execution after a restart. The journal
// counts each failure (quditd_journal_failures_total).
func (s *Service) journalSettle(id JobID, state JobState) {
	jl := s.cfg.Journal
	if jl == nil {
		return
	}
	s.mu.Lock()
	_, ok := s.journaled[id]
	delete(s.journaled, id)
	s.mu.Unlock()
	if !ok {
		return
	}
	data, err := json.Marshal(jobSettleRecord{ID: string(id), State: state.String()})
	if err == nil {
		_ = jl.Append(recJobSettle, data)
	}
	// Until its settle record is appended, a crash would replay the
	// job, so it counts as lag until then.
	s.journalLag.Add(-1)
	if jl.Stats().TailRecords >= s.cfg.JournalCompactEvery {
		_ = s.compactJournal()
	}
}

// compactJournal folds the service's durable state — the ID counter and
// every unsettled journaled job — into a journal snapshot. It holds
// s.mu across the capture and the Compact call: admissions also append
// under s.mu, so no admit record can land in the window the truncate
// erases. Settle records can (journalSettle appends without s.mu); a
// truncated settle leaves its job in the snapshot as unsettled, and the
// restart re-runs it deterministically — benign, never lossy.
func (s *Service) compactJournal() error {
	jl := s.cfg.Journal
	if jl == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := jobSnapshot{Version: jobSnapshotVersion, NextID: s.nextID}
	for id, jj := range s.journaled {
		snap.Jobs = append(snap.Jobs, jobAdmitRecord{ID: string(id), Tenant: jj.tenant, Payload: jj.payload})
	}
	// Stable ordering keeps snapshot bytes a function of state; IDs are
	// zero-padded, so lexicographic order is admission order.
	sort.Slice(snap.Jobs, func(i, j int) bool { return snap.Jobs[i].ID < snap.Jobs[j].ID })
	data, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	return jl.Compact(data)
}

// Replay restores the journal's recovered state into a freshly started
// service: every journaled job with no settle record re-enters its
// shard queue under its original ID with its verbatim wire payload, and
// the ID counter resumes past every issued ID so no live ID is ever
// reissued. Settled IDs are skipped — replay never re-executes settled
// work — and duplicate admissions collapse through the result cache at
// run time. It returns the number of jobs re-enqueued.
//
// Replay must run once, before the service is exposed to traffic and
// before Close; replayed jobs bypass the queue-capacity bound (they
// were admitted before the crash), so a replay larger than the queue
// bound still completes. Any undecodable snapshot, record, or
// payload fails loudly: a journal that cannot be replayed in full is
// corruption, and silently starting empty is the failure mode the
// journal exists to prevent.
func (s *Service) Replay(rec journal.Recovery) (int, error) {
	if s.cfg.Journal == nil {
		return 0, errors.New("serve: Replay requires Config.Journal")
	}

	maxID := uint64(0)
	noteID := func(id string) {
		var n uint64
		if _, err := fmt.Sscanf(id, "j-%d", &n); err == nil && n > maxID {
			maxID = n
		}
	}

	var ordered []jobAdmitRecord
	if rec.Snapshot != nil {
		var snap jobSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return 0, fmt.Errorf("serve: corrupt journal snapshot: %w", err)
		}
		if snap.Version != jobSnapshotVersion {
			return 0, fmt.Errorf("serve: journal snapshot is version %d, this build speaks %d",
				snap.Version, jobSnapshotVersion)
		}
		if snap.NextID > maxID {
			maxID = snap.NextID
		}
		ordered = append(ordered, snap.Jobs...)
	}
	settled := make(map[string]bool)
	for _, r := range rec.Records {
		switch r.Kind {
		case recJobAdmit:
			var ar jobAdmitRecord
			if err := json.Unmarshal(r.Payload, &ar); err != nil {
				return 0, fmt.Errorf("serve: corrupt admit record: %w", err)
			}
			ordered = append(ordered, ar)
		case recJobSettle:
			var sr jobSettleRecord
			if err := json.Unmarshal(r.Payload, &sr); err != nil {
				return 0, fmt.Errorf("serve: corrupt settle record: %w", err)
			}
			settled[sr.ID] = true
			noteID(sr.ID)
		default:
			return 0, fmt.Errorf("serve: unknown journal record kind %d", r.Kind)
		}
	}

	// Build the replay set: admission order, settled IDs skipped,
	// duplicates dropped (a compaction race can leave a job both in the
	// snapshot and as a WAL admit record — replay is idempotent).
	type replayJob struct {
		id      JobID
		tenant  string
		payload []byte
		j       *job
		shard   *shardQueue
	}
	seen := make(map[string]bool)
	var pending []replayJob
	for _, ar := range ordered {
		noteID(ar.ID)
		if seen[ar.ID] || settled[ar.ID] {
			continue
		}
		seen[ar.ID] = true
		var req JobRequest
		if err := json.Unmarshal(ar.Payload, &req); err != nil {
			return 0, fmt.Errorf("serve: journaled payload for %s does not decode: %w", ar.ID, err)
		}
		circ, err := BuildCircuit(req.Circuit)
		if err != nil {
			return 0, fmt.Errorf("serve: journaled circuit for %s does not build: %w", ar.ID, err)
		}
		opts, err := req.Options(s.proc)
		if err != nil {
			return 0, fmt.Errorf("serve: journaled options for %s do not resolve: %w", ar.ID, err)
		}
		// Restore the owning account so replay rebuilds per-tenant
		// gauges. A name missing from the (possibly edited) registry
		// falls back to anonymous: dropping attribution is recoverable,
		// dropping the job is the failure mode the journal prevents.
		acct := s.anon
		if ar.Tenant != "" && s.cfg.Tenants != nil {
			if a, ok := s.cfg.Tenants.ByName(ar.Tenant); ok {
				acct = a
			}
		}
		pending = append(pending, replayJob{id: JobID(ar.ID), tenant: ar.Tenant, payload: ar.Payload})
		rj := &pending[len(pending)-1]
		rj.j = newJob(circ, opts, acct)
		rj.j.id, rj.j.reserved = rj.id, true
		rj.j.ctx, rj.j.cancel = context.WithCancel(context.Background())
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if maxID > s.nextID {
		s.nextID = maxID
	}
	for i := range pending {
		rj := &pending[i]
		s.jobs[rj.id] = rj.j
		s.journaled[rj.id] = journaledJob{payload: rj.payload, tenant: rj.tenant}
		rj.shard = s.shards[rj.j.key.fingerprint%uint64(len(s.shards))]
		s.queuedGauge.Add(1)
		s.journalLag.Add(1)
		// The job was admitted (and made durable) before the crash, so
		// its reservation is restored unconditionally — quotas shrunk
		// since must not drop previously accepted work.
		rj.j.acct.ForceAdmitJob(rj.j.shots)
	}
	s.mu.Unlock()

	// Feed the queues outside s.mu; forcePush never blocks, so a
	// replay wider than QueueDepth still completes (workers are
	// already draining it).
	for i := range pending {
		pending[i].shard.forcePush(pending[i].j)
		s.enqueued.Add(1)
	}
	s.journalReplayed.Store(int64(len(pending)))

	// Rewrite the journal as one snapshot of what was just restored, so
	// the next restart replays state, not history.
	if err := s.compactJournal(); err != nil {
		return len(pending), fmt.Errorf("serve: compacting journal after replay: %w", err)
	}
	return len(pending), nil
}
