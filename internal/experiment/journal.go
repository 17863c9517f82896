package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"quditkit/internal/journal"
	"quditkit/internal/serve"
)

// Journal record kinds for the sweep manager's write-ahead log.
const (
	recSweepAdmit  uint8 = 1 // a sweep was accepted: {id, request}
	recCellSettle  uint8 = 2 // one cell settled: {sweep, index, state, ...}
	recSweepSettle uint8 = 3 // a sweep reached a terminal state: {id, state}
)

// sweepSnapshotVersion guards the compacted snapshot schema;
// compactEvery is the WAL tail length (records) past which a
// settlement compacts the journal.
const (
	sweepSnapshotVersion = 1
	compactEvery         = 512
)

// sweepAdmitRecord is the durable form of one accepted sweep: the
// issued ID and the canonical SweepRequest, from which a restart
// re-expands the identical cell grid (expansion is deterministic in the
// request, and cell seeds are content-addressed from the sweep seed).
type sweepAdmitRecord struct {
	ID      string          `json:"id"`
	Request json.RawMessage `json:"request"`
	// Tenant names the owning tenant (empty for anonymous), so replay
	// restores per-tenant sweep accounting.
	Tenant string `json:"tenant,omitempty"`
}

// cellSettleRecord is one cell's durable settlement. Done cells carry
// their full ResultView: the aggregators fold shot histograms, not just
// metrics, so a resumed sweep needs the result bytes to finalize an
// aggregate byte-identical to an undisturbed run.
type cellSettleRecord struct {
	Sweep     string            `json:"sweep"`
	Index     int               `json:"index"`
	State     string            `json:"state"`
	Cached    bool              `json:"cached,omitempty"`
	Error     string            `json:"error,omitempty"`
	Metric    float64           `json:"metric,omitempty"`
	HasMetric bool              `json:"has_metric,omitempty"`
	Result    *serve.ResultView `json:"result,omitempty"`
}

// sweepSettleRecord marks a journaled sweep as terminal; replay skips
// it (settled sweep views are deliberately not durable — like settled
// coordinator jobs, results are reproducible on demand).
type sweepSettleRecord struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// sweepSnapshot is the compacted journal state: the ID counter plus
// every unsettled sweep with its request and already-settled cells.
type sweepSnapshot struct {
	journal.Header
	Sweeps []sweepSnapEntry `json:"sweeps"`
}

// sweepSnapEntry is one unsettled sweep in the snapshot.
type sweepSnapEntry struct {
	ID      string             `json:"id"`
	Request json.RawMessage    `json:"request"`
	Tenant  string             `json:"tenant,omitempty"`
	Cells   []cellSettleRecord `json:"cells,omitempty"`
}

// sweepJournalFamily names the sweeps journal's /metrics families.
var sweepJournalFamily = journal.Family{
	Prefix:   "quditd_sweep_journal",
	Subject:  "Sweep",
	Lag:      "Journaled sweeps not yet settled.",
	Replayed: "Sweeps resumed from the journal at startup.",
}

// JournalStats returns the sweep journal gauges, injected as the
// "sweep_journal" block of GET /v1/stats, or nil when the manager runs
// without a journal.
func (m *Manager) JournalStats() *journal.Status {
	m.mu.Lock()
	lag := len(m.journaled)
	m.mu.Unlock()
	return m.cfg.Journal.Status(lag, m.journalReplayed.Load())
}

// settleRecordLocked renders a cell's durable settlement record; the
// caller holds s.mu. The shared ResultView pointer is safe to marshal
// after the lock drops: views are read-only once published.
func settleRecordLocked(s *sweep, rec *cellRecord) cellSettleRecord {
	return cellSettleRecord{
		Sweep:     s.id,
		Index:     rec.cell.index,
		State:     rec.state,
		Cached:    rec.cached,
		Error:     rec.err,
		Metric:    rec.metric,
		HasMetric: rec.hasMetric,
		Result:    rec.res,
	}
}

// journalCellSettle appends one cell's settlement. Append errors do
// not fail the cell: the worst outcome of a lost cell record is one
// benign, deterministic re-execution of that cell after a restart. The
// journal counts each failure (quditd_sweep_journal_failures_total).
func (m *Manager) journalCellSettle(crec cellSettleRecord) {
	jl := m.cfg.Journal
	if jl == nil {
		return
	}
	_ = jl.AppendJSON(recCellSettle, crec)
	m.maybeCompact()
}

// journalSweepSettle makes a sweep's terminal state durable and drops
// it from the unsettled working set. Like a cell settle, a failed
// append is counted by the journal and costs at most one re-run.
func (m *Manager) journalSweepSettle(s *sweep, state string) {
	jl := m.cfg.Journal
	if jl == nil {
		return
	}
	m.mu.Lock()
	_, ok := m.journaled[s.id]
	delete(m.journaled, s.id)
	m.mu.Unlock()
	if !ok {
		return
	}
	_ = jl.AppendJSON(recSweepSettle, sweepSettleRecord{ID: s.id, State: state})
	m.maybeCompact()
}

// maybeCompact triggers snapshot compaction once the WAL tail reaches
// compactEvery. A failed compaction leaves the WAL intact,
// so it only delays the next snapshot; the journal counts it.
func (m *Manager) maybeCompact() {
	if jl := m.cfg.Journal; jl != nil && jl.CompactDue(compactEvery) {
		_ = m.compactJournal()
	}
}

// compactJournal folds the manager's durable state into a journal
// snapshot. It holds m.mu across the capture and the Compact call:
// sweep admissions also append under m.mu, so no admit record can land
// in the window the truncate erases. Cell and sweep settle records can
// (they append without m.mu); a truncated settle leaves its cell or
// sweep in the snapshot as unsettled, and the restart re-runs it
// deterministically — benign, never lossy.
func (m *Manager) compactJournal() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := sweepSnapshot{Header: journal.Header{Version: sweepSnapshotVersion, NextID: m.nextID}}
	for id, s := range m.journaled {
		entry := sweepSnapEntry{ID: id, Request: s.reqJSON}
		if s.acct != nil && s.acct != m.anon {
			entry.Tenant = s.acct.Name()
		}
		s.mu.Lock()
		for _, rec := range s.cells {
			if rec.state == cellPending || rec.state == cellRunning {
				continue
			}
			entry.Cells = append(entry.Cells, settleRecordLocked(s, rec))
		}
		s.mu.Unlock()
		snap.Sweeps = append(snap.Sweeps, entry)
	}
	sort.Slice(snap.Sweeps, func(i, j int) bool { return snap.Sweeps[i].ID < snap.Sweeps[j].ID })
	return m.cfg.Journal.CompactJSON(snap)
}

// Replay restores the journal's recovered state into a freshly built
// manager: every journaled sweep with no settle record is re-expanded
// from its recorded request (deterministic, so the cell grid and every
// content-addressed cell seed are identical), its recorded cell
// settlements are restored verbatim, and only the still-unsettled cells
// re-run — the resumed aggregate is byte-identical to an undisturbed
// run. The sweep-ID counter resumes past every issued ID. It returns
// the number of sweeps resumed.
//
// Replay must run once, before the manager is exposed to traffic and
// before Close. Any undecodable snapshot, record, or request fails
// loudly: a journal that cannot be replayed in full is corruption, and
// silently starting empty is the failure mode the journal exists to
// prevent.
func (m *Manager) Replay(rec journal.Recovery) (int, error) {
	if m.cfg.Journal == nil {
		return 0, errors.New("experiment: Replay requires Config.Journal")
	}

	type pendingSweep struct {
		id     string
		req    json.RawMessage
		tenant string
		cells  []cellSettleRecord
	}
	var ordered []*pendingSweep
	byID := make(map[string]*pendingSweep)
	add := func(id string, req json.RawMessage, owner string, cells []cellSettleRecord) {
		if byID[id] != nil {
			return // compaction race duplicate; first copy wins
		}
		ps := &pendingSweep{id: id, req: req, tenant: owner, cells: cells}
		byID[id] = ps
		ordered = append(ordered, ps)
	}

	var snap sweepSnapshot
	h, err := journal.DecodeSnapshot(rec.Snapshot, sweepSnapshotVersion, &snap)
	if err != nil {
		return 0, fmt.Errorf("experiment: %w", err)
	}
	ids := journal.Counter{Prefix: "s-", Max: h.NextID}
	for _, e := range snap.Sweeps {
		add(e.ID, e.Request, e.Tenant, e.Cells)
	}
	settled := make(map[string]bool)
	for _, r := range rec.Records {
		switch r.Kind {
		case recSweepAdmit:
			var ar sweepAdmitRecord
			if err := json.Unmarshal(r.Payload, &ar); err != nil {
				return 0, fmt.Errorf("experiment: corrupt sweep admit record: %w", err)
			}
			ids.Note(ar.ID)
			add(ar.ID, ar.Request, ar.Tenant, nil)
		case recCellSettle:
			var cr cellSettleRecord
			if err := json.Unmarshal(r.Payload, &cr); err != nil {
				return 0, fmt.Errorf("experiment: corrupt cell settle record: %w", err)
			}
			// A cell record for an unknown sweep means the sweep settled
			// and was compacted away; the settlement is moot.
			if ps := byID[cr.Sweep]; ps != nil {
				ps.cells = append(ps.cells, cr)
			}
		case recSweepSettle:
			var sr sweepSettleRecord
			if err := json.Unmarshal(r.Payload, &sr); err != nil {
				return 0, fmt.Errorf("experiment: corrupt sweep settle record: %w", err)
			}
			ids.Note(sr.ID)
			settled[sr.ID] = true
		default:
			return 0, fmt.Errorf("experiment: unknown journal record kind %d", r.Kind)
		}
	}

	var resumed []*sweep
	for _, ps := range ordered {
		ids.Note(ps.id)
		if settled[ps.id] {
			continue
		}
		var req SweepRequest
		if err := json.Unmarshal(ps.req, &req); err != nil {
			return 0, fmt.Errorf("experiment: journaled request for %s does not decode: %w", ps.id, err)
		}
		exp, err := expand(req, m.cfg.MaxCells)
		if err != nil {
			return 0, fmt.Errorf("experiment: journaled request for %s does not expand: %w", ps.id, err)
		}
		s := &sweep{
			id:      ps.id,
			kind:    exp.kind,
			agg:     exp.agg,
			acct:    m.cfg.Tenants.Resolve(ps.tenant, m.anon),
			state:   SweepRunning,
			doneCh:  make(chan struct{}),
			reqJSON: ps.req,
		}
		s.publishLocked(SweepEvent{Type: EventSweep, State: SweepRunning})
		s.ctx, s.cancel = context.WithCancel(context.Background())
		for i := range exp.cells {
			s.cells = append(s.cells, &cellRecord{cell: exp.cells[i], state: cellPending})
		}
		// Restore recorded settlements (first record per index wins) and
		// rebuild the event log in index order — Seq numbering restarts,
		// but it only ever grows from here, so a client resuming via
		// Last-Event-ID still reaches the terminal event.
		for _, cr := range ps.cells {
			if cr.Index < 0 || cr.Index >= len(s.cells) {
				return 0, fmt.Errorf("experiment: journaled cell %d out of range for %s (%d cells)",
					cr.Index, ps.id, len(s.cells))
			}
			cell := s.cells[cr.Index]
			if cell.state != cellPending {
				continue
			}
			cell.state = cr.State
			cell.cached = cr.Cached
			cell.err = cr.Error
			cell.metric, cell.hasMetric = cr.Metric, cr.HasMetric
			cell.res = cr.Result
			s.settled++
			switch cr.State {
			case cellDone:
				s.done++
			case cellFailed:
				s.failed++
			case cellCancelled:
				s.cancelled++
			}
			if cr.Cached {
				s.cached++
			}
			cv := cell.view()
			s.publishLocked(SweepEvent{Type: EventCell, State: cr.State, Cell: &cv})
		}
		resumed = append(resumed, s)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return 0, ErrManagerClosed
	}
	m.nextID = max(m.nextID, ids.Max)
	for _, s := range resumed {
		m.sweeps[s.id] = s
		m.journaled[s.id] = s
		// Quota-bypassing admission: a quota shrunk across the restart
		// must not drop sweeps that were already accepted.
		s.acct.ForceAdmitSweep()
	}
	m.mu.Unlock()

	for _, s := range resumed {
		m.wg.Add(1)
		go m.run(s)
	}
	m.journalReplayed.Store(int64(len(resumed)))

	// Rewrite the journal as one snapshot of what was just restored, so
	// the next restart replays state, not history.
	if err := m.compactJournal(); err != nil {
		return len(resumed), fmt.Errorf("experiment: compacting journal after replay: %w", err)
	}
	return len(resumed), nil
}
