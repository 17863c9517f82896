package serve

import (
	"fmt"
	"testing"

	"quditkit/internal/tenant"
)

// schedRegistry builds the three-tenant registry the scheduler tests
// share: heavy (weight 2), light (weight 1), and vip (priority 10).
func schedRegistry(t *testing.T) *tenant.Registry {
	t.Helper()
	reg, err := tenant.Load([]byte(`{"tenants": [
		{"name": "heavy", "api_key": "k-heavy", "weight": 2},
		{"name": "light", "api_key": "k-light", "weight": 1},
		{"name": "vip",   "api_key": "k-vip",   "priority": 10}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func mustAccount(t *testing.T, reg *tenant.Registry, name string) *tenant.Account {
	t.Helper()
	a := reg.Resolve(name, nil)
	if a == nil {
		t.Fatalf("no tenant %q", name)
	}
	return a
}

// qJob builds the minimal job record the scheduler needs.
func qJob(acct *tenant.Account, i int) *job {
	return &job{id: JobID(fmt.Sprintf("%s-%d", acct.Name(), i)), acct: acct}
}

// tryPop pops one job without blocking; ok is false on an empty queue.
func (q *shardQueue) tryPop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.depth == 0 {
		return nil, false
	}
	return q.popLocked(), true
}

// drain pops up to n jobs without blocking, returning owner names in
// pop order.
func drain(t *testing.T, q *shardQueue, n int) []string {
	t.Helper()
	var order []string
	for i := 0; i < n; i++ {
		j, ok := q.tryPop()
		if !ok {
			break
		}
		order = append(order, j.acct.Name())
	}
	return order
}

// TestDRRWeightedShares: with both tenants backlogged, a weight-2
// tenant drains exactly two jobs for every one of a weight-1 tenant.
func TestDRRWeightedShares(t *testing.T) {
	reg := schedRegistry(t)
	heavy, light := mustAccount(t, reg, "heavy"), mustAccount(t, reg, "light")
	q := newShardQueue(0, 1024)
	for i := 0; i < 60; i++ {
		q.push(qJob(heavy, i))
		q.push(qJob(light, i))
	}
	order := drain(t, q, 30)
	counts := map[string]int{}
	for _, name := range order {
		counts[name]++
	}
	// DRR with quantum=weight and unit job cost is exact under
	// saturation, not approximate: 2 heavy per 1 light, every round.
	if counts["heavy"] != 20 || counts["light"] != 10 {
		t.Fatalf("30 pops drained %v, want heavy=20 light=10", counts)
	}
	// The full drain returns every job exactly once.
	rest := drain(t, q, 1000)
	if len(rest) != 90 || q.len() != 0 {
		t.Fatalf("drained %d more, depth %d; want 90, 0", len(rest), q.len())
	}
}

// TestDRRPriorityPreemptsQueuedOnly: a high-priority job admitted
// after a low-priority backlog pops first — preemption reorders the
// queue; jobs already popped (running) are untouched by construction.
func TestDRRPriorityPreemptsQueued(t *testing.T) {
	reg := schedRegistry(t)
	light, vip := mustAccount(t, reg, "light"), mustAccount(t, reg, "vip")
	q := newShardQueue(0, 1024)
	for i := 0; i < 5; i++ {
		q.push(qJob(light, i))
	}
	// One low-priority job is already "running": popped before the
	// vip arrives. Nothing the queue does later can affect it.
	j, ok := q.tryPop()
	if !ok || j.acct != light {
		t.Fatalf("first pop %v %v", j, ok)
	}
	for i := 0; i < 3; i++ {
		q.push(qJob(vip, i))
	}
	order := drain(t, q, 7)
	want := []string{"vip", "vip", "vip", "light", "light", "light", "light"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("drain order %v, want %v", order, want)
	}
}

// TestDRRNoStarvation: a tenant with a single queued job gets served
// within one round of a saturating tenant's share, not after its whole
// backlog.
func TestDRRNoStarvation(t *testing.T) {
	reg := schedRegistry(t)
	heavy, light := mustAccount(t, reg, "heavy"), mustAccount(t, reg, "light")
	q := newShardQueue(0, 4096)
	for i := 0; i < 1000; i++ {
		q.push(qJob(heavy, i))
	}
	q.push(qJob(light, 0))
	order := drain(t, q, 4)
	pos := -1
	for i, name := range order {
		if name == "light" {
			pos = i
			break
		}
	}
	// The light job must pop within heavy's weight (2) + 1 slots; FIFO
	// would leave it at position 1000.
	if pos < 0 || pos > 2 {
		t.Fatalf("light job popped at position %d of %v", pos, order)
	}
}

// TestFairnessP99QueueWait is fairness criterion (a) at the queue
// level, where service slots are deterministic: a saturating tenant
// that enqueued 400 jobs ahead of a weight-equal tenant's 40 cannot
// push the victim's p99 queue wait beyond its fair share. With two
// equal-weight backlogged tenants the fair share is every second slot,
// so the victim's i-th job must pop by slot 2*(i+1); under the old
// FIFO drain its first job would have waited 400 slots.
func TestFairnessP99QueueWait(t *testing.T) {
	reg, err := tenant.Load([]byte(`{"tenants": [
		{"name": "bully",  "api_key": "k-b", "weight": 1},
		{"name": "victim", "api_key": "k-v", "weight": 1}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	bully, victim := mustAccount(t, reg, "bully"), mustAccount(t, reg, "victim")
	q := newShardQueue(0, 1024)
	for i := 0; i < 400; i++ {
		q.push(qJob(bully, i))
	}
	for i := 0; i < 40; i++ {
		q.push(qJob(victim, i))
	}

	var waits []int // pop slot of each victim job, in victim FIFO order
	slot := 0
	for {
		j, ok := q.tryPop()
		if !ok {
			break
		}
		slot++
		if j.acct == victim {
			waits = append(waits, slot)
		}
	}
	if len(waits) != 40 {
		t.Fatalf("victim drained %d of 40 jobs", len(waits))
	}
	for i, w := range waits {
		if fair := 2 * (i + 1); w > fair+1 {
			t.Fatalf("victim job %d waited %d slots, fair share bound %d", i, w, fair+1)
		}
	}
}

// TestShardQueueCapacity: full() reports the admission bound, and a
// push past it (the journal-replay path, where admission was fsynced
// pre-crash) still enqueues. Admission's refusal at the bound is
// TestServiceQueueFullBackpressure's.
func TestShardQueueCapacity(t *testing.T) {
	reg := schedRegistry(t)
	light := mustAccount(t, reg, "light")
	q := newShardQueue(3, 2)
	q.push(qJob(light, 0))
	if q.full() {
		t.Fatal("full() true under cap")
	}
	q.push(qJob(light, 1))
	if !q.full() {
		t.Fatal("full() false at cap")
	}
	q.push(qJob(light, 2))
	if q.len() != 3 {
		t.Fatalf("depth %d after a push past cap, want 3", q.len())
	}
}
