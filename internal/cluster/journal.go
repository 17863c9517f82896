package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"quditkit/internal/journal"
	"quditkit/internal/tenant"
)

// Journal record kinds for the coordinator's write-ahead log, each
// carrying one entry; the snapshot schema version; and the WAL tail
// length (records) past which a settlement compacts the journal.
const (
	recWorkerJoin  uint8 = 1 // a worker registered: {id, url}
	recWorkerLeave uint8 = 2 // a worker left the ring, drained or reaped: {id}
	recDispatch    uint8 = 3 // a worker accepted a job: its routing, plus the job itself the first time
	recSettle      uint8 = 4 // a job settled: {id}

	coordSnapshotVersion = 1
	compactEvery         = 256
)

// coordSnapshot is what a restarted coordinator needs to replay its
// fleet: registered workers (identity and dispatch URL, not liveness
// clocks), unsettled client jobs, and the ID counter. Settled views are
// deliberately left out: workers' content-addressed caches reproduce
// any result byte-identically on demand, which is the cheaper
// durability.
type coordSnapshot struct {
	journal.Header
	Workers []entry `json:"workers"`
	Jobs    []entry `json:"jobs"`
}

// entry is the body of every record and snapshot row. A worker is its
// ID and URL. A job is its routing (worker, the worker's job ID,
// requeue count); its first dispatch record and its snapshot row also
// carry the verbatim submission, the routing key, the owning tenant
// (empty for anonymous) and the shot reservation. A leave or settle
// record carries only the ID.
type entry struct {
	ID       string          `json:"id"`
	URL      string          `json:"url,omitempty"`
	Key      uint64          `json:"key,omitempty"`
	Payload  json.RawMessage `json:"payload,omitempty"`
	Worker   string          `json:"worker,omitempty"`
	Remote   string          `json:"remote,omitempty"`
	Requeues int             `json:"requeues,omitempty"`
	Tenant   string          `json:"tenant,omitempty"`
	Shots    int             `json:"shots,omitempty"`
}

// entryLocked is rec's full durable row; the caller holds rec.mu.
func (rec *jobRecord) entryLocked() entry {
	e := entry{ID: rec.id, Key: rec.key, Payload: rec.payload, Worker: rec.workerID,
		Remote: rec.remoteID, Requeues: rec.requeues, Shots: rec.shots}
	if name := rec.acct.Name(); name != tenant.AnonymousName {
		e.Tenant = name
	}
	return e
}

// journalLocked appends one record; the caller holds c.mu, so records
// land in the order their changes took effect and never inside a
// compaction's capture-to-truncate window. The journal counts a
// failed append.
func (c *Coordinator) journalLocked(kind uint8, e entry) error {
	if c.cfg.Journal == nil {
		return nil
	}
	return c.cfg.Journal.AppendJSON(kind, e)
}

// compact writes the coordinator's durable state as the journal's
// snapshot, holding c.mu across the capture and the Compact call.
func (c *Coordinator) compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := coordSnapshot{Header: journal.Header{Version: coordSnapshotVersion, NextID: c.nextID}}
	for _, n := range c.workers {
		if !n.draining {
			snap.Workers = append(snap.Workers, entry{ID: n.id, URL: n.url})
		}
	}
	for _, rec := range c.jobs {
		rec.mu.Lock()
		if rec.durable && rec.workerID != "" && rec.settled == nil {
			snap.Jobs = append(snap.Jobs, rec.entryLocked())
		}
		rec.mu.Unlock()
	}
	// Stable ordering keeps snapshot bytes a function of state.
	sort.Slice(snap.Workers, func(i, j int) bool { return snap.Workers[i].ID < snap.Workers[j].ID })
	sort.Slice(snap.Jobs, func(i, j int) bool { return snap.Jobs[i].ID < snap.Jobs[j].ID })
	return c.cfg.Journal.CompactJSON(snap)
}

// Replay restores the journal's recovered state into a freshly built
// coordinator: workers rejoin the ring with a fresh heartbeat grace
// (one TTL to prove themselves before the monitor reaps them and
// requeues their jobs), unsettled client jobs keep their IDs, payloads
// and routing, and the ID counter resumes past every ID the journal
// names. It returns the number of jobs restored. The journal is left
// as found; the next compaction folds the restored state in.
//
// Replay must run once, before the coordinator is exposed to traffic.
// Anything it cannot decode fails loudly: silently forgetting accepted
// jobs is the failure mode the journal exists to prevent.
func (c *Coordinator) Replay(rec journal.Recovery) (int, error) {
	if c.cfg.Journal == nil {
		return 0, errors.New("cluster: Replay requires CoordinatorConfig.Journal")
	}
	var snap coordSnapshot
	h, err := journal.DecodeSnapshot(rec.Snapshot, coordSnapshotVersion, &snap)
	if err != nil {
		return 0, fmt.Errorf("cluster: %w", err)
	}
	ids := journal.Counter{Prefix: "c-", Max: h.NextID}
	apply := func(kind uint8, e entry) error {
		switch kind {
		case recWorkerJoin:
			c.workers[e.ID] = &workerNode{id: e.ID, url: e.URL, lastBeat: c.cfg.now(), assigned: make(map[string]*jobRecord)}
			c.ring.Add(e.ID)
		case recWorkerLeave:
			delete(c.workers, e.ID)
			c.ring.Remove(e.ID)
		case recDispatch:
			ids.Note(e.ID)
			if j := c.jobs[e.ID]; j != nil {
				j.workerID, j.remoteID, j.requeues = e.Worker, e.Remote, e.Requeues
				return nil
			}
			c.jobs[e.ID] = &jobRecord{id: e.ID, key: e.Key, acct: c.cfg.Tenants.Resolve(e.Tenant, c.anon),
				shots: e.Shots, durable: true, reserved: true, payload: e.Payload,
				workerID: e.Worker, remoteID: e.Remote, requeues: e.Requeues}
		case recSettle:
			ids.Note(e.ID)
			delete(c.jobs, e.ID)
		default:
			return fmt.Errorf("cluster: unknown journal record kind %d", kind)
		}
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Snapshot rows replay as the records that rebuild them; apply
	// fails only on an unknown kind.
	for _, w := range snap.Workers {
		_ = apply(recWorkerJoin, w)
	}
	for _, j := range snap.Jobs {
		_ = apply(recDispatch, j)
	}
	for _, r := range rec.Records {
		var e entry
		if err := json.Unmarshal(r.Payload, &e); err != nil {
			return 0, fmt.Errorf("cluster: corrupt journal record: %w", err)
		}
		if err := apply(r.Kind, e); err != nil {
			return 0, err
		}
	}
	for id, j := range c.jobs {
		if j.payload == nil {
			return 0, fmt.Errorf("cluster: journal routes job %s but never recorded its submission", id)
		}
		// Quota-bypassing admission: quotas shrunk across the restart
		// must not drop jobs the fleet already accepted.
		j.acct.ForceAdmitJob(j.shots)
		if n := c.workers[j.workerID]; n != nil {
			n.assigned[id] = j
		}
	}
	c.nextID = max(c.nextID, ids.Max)
	c.journalLag, c.journalReplayed = len(c.jobs), len(c.jobs)
	return len(c.jobs), nil
}
