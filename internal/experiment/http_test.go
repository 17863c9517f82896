package experiment

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"quditkit/internal/httpapi"
	"quditkit/internal/serve"
	"quditkit/internal/sse"
)

// newTestServer mounts a Manager over a fake runner behind the sweep
// handler, with a sentinel base handler to prove fall-through.
func newTestServer(t *testing.T, runner Runner) (*Manager, *httptest.Server) {
	t.Helper()
	m := newTestManager(t, runner, Config{})
	base := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	ts := httptest.NewServer(NewHandler(m, base))
	t.Cleanup(ts.Close)
	return m, ts
}

func postSweep(t *testing.T, url, body string, wait bool) (SweepView, int) {
	t.Helper()
	u := url + "/v1/sweeps"
	if wait {
		u += "?wait=1"
	}
	resp, err := http.Post(u, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view SweepView
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	return view, resp.StatusCode
}

const rbBody = `{"kind":"rb","shots":64,"seed":7,"rb":{"dim":3,"lengths":[1,2,4],"sequences":2}}`

// TestHTTPSubmitAndStatus drives the blocking and non-blocking
// submission paths and the status endpoint.
func TestHTTPSubmitAndStatus(t *testing.T) {
	runner := &fakeRunner{fn: func(_ context.Context, req serve.JobRequest) (serve.JobView, error) {
		return doneView(1000, 1000-20*len(req.Circuit.Ops), false), nil
	}}
	_, ts := newTestServer(t, runner)

	view, status := postSweep(t, ts.URL, rbBody, true)
	if status != http.StatusOK || view.State != SweepCompleted {
		t.Fatalf("wait submit: %d %+v", status, view)
	}
	if view.Aggregate == nil || view.Aggregate.RB == nil || view.Aggregate.RB.DecayRate <= 0 {
		t.Fatalf("aggregate: %+v", view.Aggregate)
	}

	async, status := postSweep(t, ts.URL, rbBody, false)
	if status != http.StatusAccepted || async.ID == "" {
		t.Fatalf("async submit: %d %+v", status, async)
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + async.ID + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var settled SweepView
	if err := json.NewDecoder(resp.Body).Decode(&settled); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || settled.State != SweepCompleted {
		t.Fatalf("status wait: %d %+v", resp.StatusCode, settled)
	}
	if len(settled.Cells) != settled.TotalCells {
		t.Fatalf("status omits cells: %+v", settled)
	}
}

// TestHTTPErrors covers the rejection surface: malformed JSON, unknown
// fields, invalid sweeps, unknown IDs, and base-handler fall-through.
func TestHTTPErrors(t *testing.T) {
	runner := &fakeRunner{fn: func(_ context.Context, _ serve.JobRequest) (serve.JobView, error) {
		return doneView(100, 80, false), nil
	}}
	_, ts := newTestServer(t, runner)

	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed", `{"kind":`, http.StatusBadRequest},
		{"unknown field", `{"kind":"rb","shots":64,"turbo":true}`, http.StatusBadRequest},
		{"invalid sweep", `{"kind":"rb","shots":0,"rb":{"dim":3,"lengths":[1,2]}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if _, status := postSweep(t, ts.URL, c.body, false); status != c.want {
			t.Errorf("%s: status %d, want %d", c.name, status, c.want)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/s-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown sweep status %d", resp.StatusCode)
	}

	// Requests outside /v1/sweeps reach the base handler.
	resp, err = http.Get(ts.URL + "/v1/jobs/j-000001")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot {
		t.Fatalf("base fall-through status %d", resp.StatusCode)
	}
}

// TestHTTPCancel cancels a wedged sweep over the wire and checks the
// conflict answer on a settled one.
func TestHTTPCancel(t *testing.T) {
	started := make(chan struct{}, 16)
	runner := &fakeRunner{fn: func(ctx context.Context, _ serve.JobRequest) (serve.JobView, error) {
		started <- struct{}{}
		<-ctx.Done()
		return serve.JobView{}, ctx.Err()
	}}
	m, ts := newTestServer(t, runner)

	view, status := postSweep(t, ts.URL, rbBody, false)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d", status)
	}
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+view.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	settled := awaitSweep(t, m, view.ID)
	if settled.State != SweepCancelled {
		t.Fatalf("state %q after cancel", settled.State)
	}

	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of settled sweep: %d, want 409", resp.StatusCode)
	}
}

// readSweepSSE parses an SSE stream into its events.
func readSweepSSE(t *testing.T, r *http.Response) []SweepEvent {
	t.Helper()
	var events []SweepEvent
	sse.Read(r.Body, func(f sse.Frame) bool {
		var ev SweepEvent
		if err := json.Unmarshal(f.Data, &ev); err != nil {
			t.Fatalf("bad event %q: %v", f.Data, err)
		}
		events = append(events, ev)
		return false
	})
	return events
}

// TestHTTPEvents streams a sweep's SSE feed end to end, then replays
// from a Last-Event-ID checkpoint and as a late subscriber.
func TestHTTPEvents(t *testing.T) {
	release := make(chan struct{})
	runner := &fakeRunner{fn: func(_ context.Context, req serve.JobRequest) (serve.JobView, error) {
		<-release
		return doneView(1000, 1000-20*len(req.Circuit.Ops), false), nil
	}}
	_, ts := newTestServer(t, runner)

	view, _ := postSweep(t, ts.URL, rbBody, false)
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	close(release)
	events := readSweepSSE(t, resp)
	if len(events) != 1+6+1 {
		t.Fatalf("stream carried %d events: %+v", len(events), events)
	}
	if events[0].Type != EventSweep || events[0].State != SweepRunning {
		t.Fatalf("first event %+v", events[0])
	}
	cellEvents := 0
	for _, ev := range events[1:7] {
		if ev.Type == EventCell && ev.Cell != nil && ev.Cell.State == cellDone {
			cellEvents++
		}
	}
	if cellEvents != 6 {
		t.Fatalf("%d done cell events, want 6", cellEvents)
	}
	last := events[len(events)-1]
	if last.Type != EventSweep || last.State != SweepCompleted || last.Sweep == nil || last.Sweep.Aggregate == nil {
		t.Fatalf("terminal event %+v", last)
	}

	// Resume after seq 3: only later events replay.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/sweeps/"+view.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "3")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	resumed := readSweepSSE(t, resp2)
	if len(resumed) != 4 || resumed[0].Seq != 4 {
		t.Fatalf("resume replayed %d events starting %d", len(resumed), resumed[0].Seq)
	}

	// A late subscriber with ?after= gets the remaining tail and the
	// stream still terminates.
	resp3, err := http.Get(ts.URL + "/v1/sweeps/" + view.ID + "/events?after=6")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	tail := readSweepSSE(t, resp3)
	if len(tail) != 1 || !tail[0].terminal() {
		t.Fatalf("late tail %+v", tail)
	}

	// Unknown sweep: 404, not a stream.
	resp4, err := http.Get(ts.URL + "/v1/sweeps/s-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusNotFound {
		t.Fatalf("events of unknown sweep: %d", resp4.StatusCode)
	}

	// A non-integer resume point: 400 invalid_request, not a stream.
	resp5, err := http.Get(ts.URL + "/v1/sweeps/" + view.ID + "/events?after=x")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp5.Body)
	resp5.Body.Close()
	if det, ok := httpapi.Decode(raw); resp5.StatusCode != http.StatusBadRequest || !ok || det.Code != httpapi.CodeInvalidRequest {
		t.Fatalf("events?after=x: status %d body %s", resp5.StatusCode, raw)
	}
}

// TestHTTPSubmitWaitTimeout detaches a waiting submit when the client
// gives up; the sweep itself keeps running.
func TestHTTPSubmitWaitTimeout(t *testing.T) {
	release := make(chan struct{})
	runner := &fakeRunner{fn: func(_ context.Context, _ serve.JobRequest) (serve.JobView, error) {
		<-release
		return doneView(100, 80, false), nil
	}}
	m, ts := newTestServer(t, runner)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweeps?wait=1", strings.NewReader(rbBody))
	req.Header.Set("Content-Type", "application/json")
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("waiting submit returned before the sweep settled")
	}
	close(release)

	// The sweep survives the detached client.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m.mu.Lock()
		var running *sweep
		for _, s := range m.sweeps {
			running = s
		}
		m.mu.Unlock()
		if running != nil {
			if v := awaitSweep(t, m, running.id); v.State != SweepCompleted {
				t.Fatalf("sweep state %q after client detach", v.State)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep vanished")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
