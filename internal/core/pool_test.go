package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

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
