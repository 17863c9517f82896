package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"quditkit/internal/circuit"
	"quditkit/internal/gates"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
)

// cancelAfter is a context that reports cancellation from its n-th
// Err poll on. It counts the polls in flight, so a test can see
// whether any pool goroutine was still polling when Execute returned.
type cancelAfter struct {
	context.Context
	n        int64
	polls    atomic.Int64
	inflight atomic.Int64
}

func (c *cancelAfter) Err() error {
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	if c.polls.Add(1) < c.n {
		return nil
	}
	// Linger once cancelled, so an Execute that returned without
	// waiting for its pool would find goroutines still in here.
	time.Sleep(time.Millisecond)
	return context.Canceled
}

// TestTrajectoryCancelMidRunWaitsForPool: a trajectory job cancelled
// mid-run at width 4 returns context.Canceled, and Execute returns only
// after every pool goroutine has stopped polling.
func TestTrajectoryCancelMidRunWaitsForPool(t *testing.T) {
	const shots = 4096
	ctx := &cancelAfter{Context: context.Background(), n: 64}
	_, err := TrajectoryBackend{}.Execute(ghzQutritCircuit(t, 4), ExecSpec{
		Ctx: ctx, Noise: noise.Model{Damping: 0.01}, Shots: shots, Seed: 3, Workers: 4,
	})
	if n := ctx.inflight.Load(); n != 0 {
		t.Fatalf("Execute returned with %d pool goroutines still polling", n)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if polls := ctx.polls.Load(); polls >= shots {
		t.Fatalf("%d polls for %d shots: the job ran to completion", polls, shots)
	}
}

// TestTrajectoryBatchArenaBudget: a job's batch arenas share one
// circuit.MaxBatchAmps budget however wide its pool, and no worker's
// arena holds more vectors than one stripe has shots. Each case
// measures the bytes a batched Execute allocates beyond the same
// Execute unbatched: the arenas plus a few words per vector.
func TestTrajectoryBatchArenaBudget(t *testing.T) {
	// Six ququarts: 4096 amplitudes, so 64 MiB holds 1024 vectors,
	// fewer than the 4096 requested.
	c, err := circuit.New(hilbert.Uniform(6, 4))
	if err != nil {
		t.Fatal(err)
	}
	c.MustAppend(gates.Z(4), 0)
	const dim, workers, requested = 4096, 8, 4096
	model := noise.Model{Dephasing: 0.01}
	allocated := func(shots, shotBatch int) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := TrajectoryBackend{}.Execute(c, ExecSpec{
			Noise: model, Shots: shots, Seed: 5, Workers: workers, ShotBatch: shotBatch,
		})
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	allocated(1, 1) // compile and cache the plan outside the measurement
	for _, tc := range []struct {
		name  string
		shots int
		amps  int // the arena amplitudes the job may hold
	}{
		// 160 shots per stripe; the budget's 128 vectors per worker bind
		// (arenas capped only at a stripe's shots would hold 80 MiB).
		{"job budget", 64 * 160, circuit.MaxBatchAmps},
		// Two shots per stripe: two vectors per worker.
		{"stripe shots", 128, workers * 2 * dim},
	} {
		extra := allocated(tc.shots, requested) - allocated(tc.shots, 1)
		if limit := int64(tc.amps)*16 + 1<<20; extra > limit {
			t.Errorf("%s: batching allocated %d extra bytes, budget %d (+1 MiB bookkeeping)",
				tc.name, extra, int64(tc.amps)*16)
		}
	}
}
