package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"quditkit/internal/core"
	"quditkit/internal/noise"
)

// poolGoroutines counts the goroutines the trajectory backend has
// started for the shot pools of the jobs running now.
func poolGoroutines(buf []byte) int {
	n := runtime.Stack(buf, true)
	return bytes.Count(buf[:n], []byte("created by quditkit/internal/core.TrajectoryBackend.Execute"))
}

// widestPool waits for job id to settle and returns the most
// trajectory-pool goroutines seen at once while it ran. No other
// trajectory job may run on the process meanwhile.
func widestPool(t *testing.T, s *Service, id JobID) int {
	t.Helper()
	buf := make([]byte, 1<<20)
	widest := 0
	for {
		n := poolGoroutines(buf)
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != Queued && st.State != Running {
			if st.Err != nil {
				t.Fatal(st.Err)
			}
			break
		}
		widest = max(widest, n)
		time.Sleep(500 * time.Microsecond)
	}
	// Pool goroutines exit just after the job's Execute stops waiting
	// for them; let them go before the next job is measured.
	for poolGoroutines(buf) > 0 {
		time.Sleep(time.Millisecond)
	}
	return widest
}

// TestServeLendsEveryCore: serve runs a trajectory job's shots on a
// pool as wide as GOMAXPROCS unless the job asks for a width itself.
// The width is observed as pool goroutines, so a lent width that never
// reaches core fails here even though results are width-invariant.
func TestServeLendsEveryCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := newTestService(t, Config{Shards: 1, CacheSize: -1})
	// Long enough for many samples, at 64 stripes: the pool is never
	// clamped below the four workers.
	long := []core.RunOption{
		core.WithBackend(core.Trajectory),
		core.WithNoise(noise.Model{Damping: 0.02, Dephasing: 0.01}),
		core.WithShots(8192),
	}
	for _, tc := range []struct {
		name   string
		opts   []core.RunOption
		lo, hi int // bounds on the widest pool seen
	}{
		{"default", long, 2, 4},
		{"explicit workers", append([]core.RunOption{core.WithWorkers(1)}, long...), 1, 1},
	} {
		id, err := s.Enqueue(ghz(t), tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := widestPool(t, s, id); got < tc.lo || got > tc.hi {
			t.Errorf("%s: widest pool %d goroutines, want %d..%d", tc.name, got, tc.lo, tc.hi)
		}
	}
}

// TestLoneAndLoadedJobsMatchSubmitOne: a trajectory job that runs on a
// pool as wide as the node, alone or behind a backlog of others, must
// return the bytes of Processor.SubmitOne at width 1. Several
// goroutines submit at once, so under the race detector the lent pools
// run concurrently.
func TestLoneAndLoadedJobsMatchSubmitOne(t *testing.T) {
	opts := []core.RunOption{
		core.WithBackend(core.Trajectory),
		core.WithNoise(noise.Model{Damping: 0.02, Dephasing: 0.01}),
		core.WithShots(256),
	}
	encode := func(res core.Result) string {
		view, err := json.Marshal(NewResultView(res))
		if err != nil {
			t.Error(err)
		}
		probs, err := res.Probabilities()
		if err != nil {
			t.Error(err)
		}
		bits := make([]uint64, len(probs))
		for i, p := range probs {
			bits[i] = math.Float64bits(p)
		}
		return fmt.Sprint(string(view), bits)
	}
	ref, err := testProcessor(t).SubmitOne(ghz(t), append(opts, core.WithWorkers(1))...)
	if err != nil {
		t.Fatal(err)
	}
	want := encode(ref)

	// One shard, with the result cache off: every
	// submission simulates, alone or behind the others.
	s := newTestService(t, Config{Shards: 1, CacheSize: -1})
	check := func(id JobID, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		res, err := s.Await(context.Background(), id)
		if err != nil {
			t.Error(err)
			return
		}
		if got := encode(res); got != want {
			t.Errorf("job %s differs from SubmitOne at width 1:\n got %s\nwant %s", id, got, want)
		}
	}
	check(s.Enqueue(ghz(t), opts...))

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ids []JobID
			for i := 0; i < 3; i++ {
				id, err := s.Enqueue(ghz(t), opts...)
				if err != nil {
					t.Error(err)
					return
				}
				ids = append(ids, id)
			}
			for _, id := range ids {
				check(id, nil)
			}
		}()
	}
	wg.Wait()
}

// TestFormatJobID: job IDs keep their "j-%06d" form.
func TestFormatJobID(t *testing.T) {
	for _, n := range []uint64{1, 42, 999999, 1000000, 1234567890} {
		if got, want := formatJobID(n), JobID(fmt.Sprintf("j-%06d", n)); got != want {
			t.Errorf("formatJobID(%d) = %q, want %q", n, got, want)
		}
	}
}
