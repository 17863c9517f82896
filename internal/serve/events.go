package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"quditkit/internal/httpapi"
)

// Event is one job state transition, recorded on the job and streamed
// to subscribers. Events are the push-mode alternative to ?wait=1
// long-polling: a client that subscribes once sees every transition —
// including partial completions of a drained batch, since each job
// settles (and publishes) individually as its result lands — without
// re-requesting.
type Event struct {
	// Seq numbers the event within its job, starting at 0. It doubles
	// as the SSE event id, so reconnecting clients can resume with
	// Last-Event-ID and skip transitions they already saw.
	Seq int `json:"seq"`
	// State is the job state entered by this transition ("queued",
	// "running", "done", "failed", "cancelled").
	State string `json:"state"`
	// Cached reports whether a terminal Done event was served from the
	// result cache.
	Cached bool `json:"cached,omitempty"`
	// Error carries the terminal error message of a Failed or
	// Cancelled event.
	Error string `json:"error,omitempty"`
	// Result is the result view of a terminal Done event; nil on every
	// other event.
	Result *ResultView `json:"result,omitempty"`
}

// terminal reports whether the event settles the job, i.e. whether it
// is the last event its stream will ever carry.
func (e Event) terminal() bool {
	switch e.State {
	case Done.String(), Failed.String(), Cancelled.String():
		return true
	}
	return false
}

// publishLocked appends an event to the job's record and fans it out
// to live subscribers; the caller holds j.mu. Subscriber channels are
// buffered well past the maximum event count per job (queued, running,
// terminal — three), so the non-blocking send never actually drops.
// A terminal event closes every subscriber channel.
func (j *job) publishLocked(ev Event) {
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	for _, ch := range j.subs {
		select {
		case ch <- j.deliverableLocked(ev):
		default:
		}
		if ev.terminal() {
			close(ch)
		}
	}
	if ev.terminal() {
		j.subs = nil
	}
}

// terminalEventLocked builds the settlement event for the job's
// current (terminal) state; the caller holds j.mu and has already
// assigned the terminal state, result, and error. The recorded event
// carries no result view: deliverableLocked attaches one for each
// subscriber, so a job nobody streams never builds one.
func (j *job) terminalEventLocked() Event {
	ev := Event{State: j.state.String(), Cached: j.cached}
	if j.err != nil {
		ev.Error = j.err.Error()
	}
	return ev
}

// deliverableLocked returns a recorded event as subscribers see it: a
// Done event carries the job's result view. The caller holds j.mu.
func (j *job) deliverableLocked(ev Event) Event {
	if ev.State == Done.String() {
		res := NewResultView(j.res)
		ev.Result = &res
	}
	return ev
}

// Subscribe returns a channel that first replays the job's recorded
// events and then streams live ones, plus a release function the
// subscriber must call when done (releasing early is safe; releasing
// after the terminal event is a no-op). The channel is closed after
// the terminal event, so ranging over it ends exactly when the job
// settles. Events for a job pruned by retention are gone with it:
// Subscribe then returns ErrUnknownJob.
func (s *Service) Subscribe(id JobID) (<-chan Event, func(), error) {
	j, err := s.job(id)
	if err != nil {
		return nil, nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Event, len(j.events)+8)
	for _, ev := range j.events {
		ch <- j.deliverableLocked(ev)
	}
	if len(j.events) > 0 && j.events[len(j.events)-1].terminal() {
		close(ch)
		return ch, func() {}, nil
	}
	j.subs = append(j.subs, ch)
	release := func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		for i, sub := range j.subs {
			if sub == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				close(ch)
				return
			}
		}
	}
	return ch, release, nil
}

// serveEvents streams a job's events as Server-Sent Events until the
// job settles or the client disconnects. Each event is written as
//
//	id: <seq>
//	event: state
//	data: {JSON Event}
//
// and a Last-Event-ID header (or ?after=<seq> query) resumes after the
// given sequence number, skipping transitions the client already saw.
func (s *Service) serveEvents(w http.ResponseWriter, r *http.Request, id JobID) {
	events, release, err := s.Subscribe(id)
	if err != nil {
		httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeNotFound, err.Error(), 0)
		return
	}
	defer release()

	after := -1
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			after = n
		}
	}
	if v := r.URL.Query().Get("after"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			after = n
		}
	}

	flusher, ok := w.(http.Flusher)
	if !ok {
		httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal,
			"serve: response writer cannot stream", 0)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return // terminal event delivered; stream complete
			}
			if ev.Seq <= after {
				continue
			}
			if err := writeSSE(w, ev); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE encodes one event in SSE wire form.
func writeSSE(w http.ResponseWriter, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: state\ndata: %s\n\n", ev.Seq, data)
	return err
}
