package serve

import (
	"sync"

	"quditkit/internal/tenant"
)

// shardQueue is one shard's bounded job queue with weighted
// deficit-round-robin (DRR) scheduling across tenants, replacing the
// plain FIFO channel the Service used before multi-tenancy.
//
// Jobs are grouped by tenant account into per-tenant FIFOs (order
// within a tenant is preserved — determinism of results never depends
// on it, since per-job seeds are content-addressed, but FIFO keeps
// latency fair within a tenant). Tenant FIFOs are grouped into
// priority classes; pop always serves the highest non-empty class, so
// a newly admitted high-priority job preempts *queued* jobs of lower
// classes — running jobs are never touched, preemption only reorders
// the not-yet-started. Within a class, DRR with quantum = tenant
// weight and unit cost per job gives each backlogged tenant a share
// of dequeues proportional to its weight: a weight-2 tenant drains
// two jobs per round for every one of a weight-1 tenant, and a
// bursty tenant can saturate only its own share, never starve others.
type shardQueue struct {
	index int // shard number, for queue-full diagnostics
	cap   int // admission bound (replay pushes may exceed it)

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	depth  int
	// classes is kept sorted by descending priority; lazily extended
	// as tenants of new classes first appear.
	classes []*classLevel
}

// classLevel is one priority class inside a shardQueue: an active
// ring of backlogged tenant FIFOs plus the DRR cursor.
type classLevel struct {
	priority int
	count    int // queued jobs across all tenants of this class
	cur      int // DRR cursor into active
	active   []*tenantFIFO
	byAcct   map[*tenant.Account]*tenantFIFO
}

// tenantFIFO is one tenant's backlog within a class. deficit is the
// DRR credit: replenished by the tenant's weight when the cursor
// arrives with it exhausted, spent one per dequeued job.
type tenantFIFO struct {
	acct    *tenant.Account
	jobs    []*job
	head    int // index of the next job; jobs[:head] are popped
	deficit int
}

func newShardQueue(index, capacity int) *shardQueue {
	q := &shardQueue{index: index, cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// len returns the current queued-job count.
func (q *shardQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}

// full reports whether the queue is at admission capacity.
func (q *shardQueue) full() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth >= q.cap
}

// push enqueues j regardless of capacity: admission checks full()
// under the service lock before it pushes, and replay must never drop
// a previously accepted job.
func (q *shardQueue) push(j *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	cl := q.classFor(j.acct.Priority())
	f, ok := cl.byAcct[j.acct]
	if !ok {
		f = &tenantFIFO{acct: j.acct}
		cl.byAcct[j.acct] = f
		cl.active = append(cl.active, f)
	}
	f.jobs = append(f.jobs, j)
	cl.count++
	q.depth++
	q.cond.Signal()
}

// classFor finds or inserts the class with the given priority,
// keeping classes sorted high-to-low.
func (q *shardQueue) classFor(priority int) *classLevel {
	i := 0
	for i < len(q.classes) && q.classes[i].priority > priority {
		i++
	}
	if i < len(q.classes) && q.classes[i].priority == priority {
		return q.classes[i]
	}
	cl := &classLevel{priority: priority, byAcct: make(map[*tenant.Account]*tenantFIFO)}
	q.classes = append(q.classes, nil)
	copy(q.classes[i+1:], q.classes[i:])
	q.classes[i] = cl
	return cl
}

// pop blocks until a job is available or the queue is closed and
// drained; ok is false only in the latter case. Jobs cancelled while
// queued are still returned — the worker's begin() skips them, same
// as with the old channel queues.
func (q *shardQueue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.depth == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.depth == 0 {
		return nil, false
	}
	return q.popLocked(), true
}

// popLocked dequeues one job: highest non-empty priority class first,
// DRR among that class's tenants. Callers hold q.mu and have checked
// depth > 0.
func (q *shardQueue) popLocked() *job {
	for _, cl := range q.classes {
		if cl.count == 0 {
			continue
		}
		j := cl.popLocked()
		q.depth--
		return j
	}
	// Unreachable while the depth/count bookkeeping holds.
	panic("serve: shardQueue depth>0 with no queued jobs")
}

// popLocked serves one job from the class by deficit round-robin.
// The cursor stays on a tenant until its deficit is spent or its
// backlog empties, then advances; deficit replenishes by the tenant's
// weight when the cursor returns with it exhausted (a full round
// later — or immediately when the tenant is alone in the ring, which
// degenerates to FIFO as it should). Emptied FIFOs leave the ring and
// forfeit leftover deficit, the standard DRR rule that stops idle
// tenants accumulating credit.
func (cl *classLevel) popLocked() *job {
	for {
		if cl.cur >= len(cl.active) {
			cl.cur = 0
		}
		f := cl.active[cl.cur]
		if f.head >= len(f.jobs) {
			cl.removeCurrent(f)
			continue
		}
		if f.deficit < 1 {
			f.deficit += f.acct.Weight()
		}
		j := f.jobs[f.head]
		f.jobs[f.head] = nil // release for GC; settled jobs pin circuits
		f.head++
		f.deficit--
		cl.count--
		if f.head > 32 && f.head*2 >= len(f.jobs) {
			// Compact the popped prefix so a perpetually backlogged
			// tenant's FIFO cannot grow without bound.
			n := copy(f.jobs, f.jobs[f.head:])
			clear(f.jobs[n:])
			f.jobs = f.jobs[:n]
			f.head = 0
		}
		switch {
		case f.head >= len(f.jobs):
			cl.removeCurrent(f)
		case f.deficit < 1:
			cl.cur++
		}
		return j
	}
}

// removeCurrent drops the FIFO at the cursor from the ring (and the
// account map). The cursor then points at the next tenant.
func (cl *classLevel) removeCurrent(f *tenantFIFO) {
	delete(cl.byAcct, f.acct)
	cl.active = append(cl.active[:cl.cur], cl.active[cl.cur+1:]...)
	if cl.cur >= len(cl.active) {
		cl.cur = 0
	}
}

// close wakes all blocked poppers; queued jobs still drain.
func (q *shardQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
