package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"quditkit/internal/core"
	"quditkit/internal/httpapi"
	"quditkit/internal/sse"
)

// readEvents reads a job's event log the way its stream does, waiting
// for each next event, until the log ends.
func readEvents(t *testing.T, s *Service, id JobID) []Event {
	t.Helper()
	j, err := s.job(id)
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	for {
		evs, wake := j.eventsSince(len(got) - 1)
		got = append(got, evs...)
		if wake == nil {
			return got
		}
		select {
		case <-wake:
		case <-time.After(time.Minute):
			t.Fatalf("job %s: no event after %+v", id, got)
		}
	}
}

// TestEventLogReplaysLifecycle: a reader that comes after settlement
// replays queued → running → done in order, with the result on the
// terminal event, and the log ends there.
func TestEventLogReplaysLifecycle(t *testing.T) {
	svc := newTestService(t, Config{})
	id, err := svc.Enqueue(ghz(t), core.WithShots(32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Await(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	got := readEvents(t, svc, id)
	if len(got) != 3 {
		t.Fatalf("got %d events %+v, want 3", len(got), got)
	}
	for i, want := range []string{"queued", "running", "done"} {
		if got[i].State != want || got[i].Seq != i {
			t.Fatalf("event %d = %+v, want state %q seq %d", i, got[i], want, i)
		}
	}
	if got[2].Result == nil || got[2].Result.Shots != 32 {
		t.Fatalf("terminal event result = %+v", got[2].Result)
	}

	// A cache-hit submission publishes queued → done(cached), with no
	// running transition.
	id2, err := svc.Enqueue(ghz(t), core.WithShots(32))
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	var last Event
	for _, ev := range readEvents(t, svc, id2) {
		states = append(states, ev.State)
		last = ev
	}
	if strings.Join(states, ",") != "queued,done" || !last.Cached {
		t.Fatalf("cache-hit lifecycle %v cached=%v", states, last.Cached)
	}
}

// TestEventLogLive: a reader waiting on a running job's log sees the
// terminal event as it happens.
func TestEventLogLive(t *testing.T) {
	svc := newTestService(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	id, err := svc.Enqueue(ghz(t), core.WithShots(1<<18), core.WithBackend(core.Trajectory),
		core.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	j, err := svc.job(id)
	if err != nil {
		t.Fatal(err)
	}
	if evs, wake := j.eventsSince(-1); wake == nil {
		t.Fatalf("job settled before the reader waited: %+v", evs)
	}

	cancel() // abort the long job; the reader must see cancelled
	states := []string{}
	for _, ev := range readEvents(t, svc, id) {
		states = append(states, ev.State)
	}
	if states[len(states)-1] != "cancelled" {
		t.Fatalf("lifecycle %v, want cancelled terminal", states)
	}
	if _, err := svc.job(JobID("j-999999")); err == nil {
		t.Fatal("unknown job has an event log")
	}
}

// TestEventsHTTPStream drives GET /v1/jobs/{id}/events over real HTTP:
// SSE framing, id lines matching seqs, and Last-Event-ID resume.
func TestEventsHTTPStream(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	id, err := svc.Enqueue(ghz(t), core.WithShots(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Await(context.Background(), id); err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + string(id) + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var seqs []int
	var lastData []byte
	sse.Read(resp.Body, func(f sse.Frame) bool {
		lastData = f.Data
		var ev Event
		if err := json.Unmarshal(f.Data, &ev); err != nil {
			t.Fatalf("bad data %q: %v", f.Data, err)
		}
		if f.ID != strconv.Itoa(ev.Seq) {
			t.Fatalf("frame id %q carries seq %d", f.ID, ev.Seq)
		}
		seqs = append(seqs, ev.Seq)
		return false
	})
	if len(seqs) != 3 || seqs[0] != 0 || seqs[2] != 2 {
		t.Fatalf("seqs %v", seqs)
	}
	var terminal Event
	if err := json.Unmarshal(lastData, &terminal); err != nil || terminal.State != "done" || terminal.Result == nil {
		t.Fatalf("terminal %q err %v", lastData, err)
	}

	// Resuming after seq 1 replays only the terminal event.
	resume, err := ts.Client().Get(ts.URL + "/v1/jobs/" + string(id) + "/events?after=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resume.Body.Close()
	count := 0
	sse.Read(resume.Body, func(sse.Frame) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("resume replayed %d events, want 1", count)
	}

	// A non-integer resume point is a bad request, not a replay.
	bad, err := ts.Client().Get(ts.URL + "/v1/jobs/" + string(id) + "/events?after=x")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(bad.Body)
	bad.Body.Close()
	if det, ok := httpapi.Decode(raw); bad.StatusCode != 400 || !ok || det.Code != httpapi.CodeInvalidRequest {
		t.Fatalf("events?after=x: status %d body %s", bad.StatusCode, raw)
	}

	// Unknown jobs 404.
	nf, err := ts.Client().Get(ts.URL + "/v1/jobs/j-424242/events")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != 404 {
		t.Fatalf("unknown job events status %d", nf.StatusCode)
	}
}

// TestInflightShotsGauge: the gauge rises with a running job's shot
// budget and returns to zero on settlement.
func TestInflightShotsGauge(t *testing.T) {
	svc := newTestService(t, Config{Shards: 1})
	if got := svc.Stats().InflightShots; got != 0 {
		t.Fatalf("idle inflight shots = %d", got)
	}
	id, err := svc.Enqueue(ghz(t), core.WithShots(64), core.WithBackend(core.Trajectory))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Await(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().InflightShots; got != 0 {
		t.Fatalf("settled inflight shots = %d", got)
	}
}
