package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"quditkit/internal/core"
)

// TestSubscribeReplaysLifecycle: a subscriber attached after
// settlement replays queued → running → done in order, with the
// result on the terminal event, and the channel closes.
func TestSubscribeReplaysLifecycle(t *testing.T) {
	svc := newTestService(t, Config{})
	id, err := svc.Enqueue(ghz(t), core.WithShots(32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Await(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	events, release, err := svc.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	var got []Event
	for ev := range events {
		got = append(got, ev)
	}
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
	events2, release2, err := svc.Subscribe(id2)
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	var states []string
	var last Event
	for ev := range events2 {
		states = append(states, ev.State)
		last = ev
	}
	if strings.Join(states, ",") != "queued,done" || !last.Cached {
		t.Fatalf("cache-hit lifecycle %v cached=%v", states, last.Cached)
	}
}

// TestSubscribeLiveAndRelease: a live subscriber sees the terminal
// event as it happens, and releasing early detaches without blocking
// settlement.
func TestSubscribeLiveAndRelease(t *testing.T) {
	svc := newTestService(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	id, err := svc.Enqueue(ghz(t), core.WithShots(1<<18), core.WithBackend(core.Trajectory),
		core.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	events, release, err := svc.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	// A second subscriber detaches immediately; its channel must not
	// wedge the publisher.
	_, release2, err := svc.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	release2()

	cancel() // abort the long job; the subscriber must see cancelled
	var states []string
	for ev := range events {
		states = append(states, ev.State)
	}
	release()
	if states[len(states)-1] != "cancelled" {
		t.Fatalf("lifecycle %v, want cancelled terminal", states)
	}
	if _, _, err := svc.Subscribe(JobID("j-999999")); err == nil {
		t.Fatal("unknown job subscribed")
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
	var lastData string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
			var ev Event
			if err := json.Unmarshal([]byte(lastData), &ev); err != nil {
				t.Fatalf("bad data %q: %v", lastData, err)
			}
			seqs = append(seqs, ev.Seq)
		}
	}
	if len(seqs) != 3 || seqs[0] != 0 || seqs[2] != 2 {
		t.Fatalf("seqs %v", seqs)
	}
	var terminal Event
	if err := json.Unmarshal([]byte(lastData), &terminal); err != nil || terminal.State != "done" || terminal.Result == nil {
		t.Fatalf("terminal %q err %v", lastData, err)
	}

	// Resuming after seq 1 replays only the terminal event.
	resume, err := ts.Client().Get(ts.URL + "/v1/jobs/" + string(id) + "/events?after=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resume.Body.Close()
	count := 0
	sc = bufio.NewScanner(resume.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("resume replayed %d events, want 1", count)
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
