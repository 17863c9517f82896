package serve

import (
	"net/http"

	"quditkit/internal/httpapi"
	"quditkit/internal/sse"
)

// Event is one job state transition, recorded on the job's event log
// and streamed to its readers. Events are the push-mode alternative to
// ?wait=1 long-polling: a client that streams once sees every
// transition, each published the moment the job enters it, without
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

// Terminal reports whether a wire state name is one a job settles in —
// "done", "failed" or "cancelled" — so that an event entering it is
// the last its stream carries.
func Terminal(state string) bool {
	switch state {
	case Done.String(), Failed.String(), Cancelled.String():
		return true
	}
	return false
}

// publishLocked records an event on the job's log, waking the streams
// that wait for it; the caller holds j.mu, or has not published the
// job yet.
func (j *job) publishLocked(ev Event) {
	ev.Seq = j.events.Len()
	j.events.Append(ev, Terminal(ev.State))
}

// terminalEventLocked builds the settlement event for the job's
// current (terminal) state; the caller holds j.mu and has already
// assigned the terminal state, result, and error. The recorded event
// carries no result view: eventsSince attaches one for each reader,
// so a job nobody streams never builds one.
func (j *job) terminalEventLocked() Event {
	ev := Event{State: j.state.String(), Cached: j.cached}
	if j.err != nil {
		ev.Error = j.err.Error()
	}
	return ev
}

// eventsSince returns the job's events after index after as a stream
// sends them, with the channel sse.Log.Since returns. A Done event
// carries the job's result view, built for each reader.
func (j *job) eventsSince(after int) ([]Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	evs, wake := j.events.Since(after)
	if n := len(evs); n > 0 && evs[n-1].State == Done.String() {
		evs = append([]Event(nil), evs...)
		res := NewResultView(j.res)
		evs[n-1].Result = &res
	}
	return evs, wake
}

// serveEvents streams a job's events as Server-Sent Events named
// "state" until the job settles or the client disconnects, resuming
// after the client's Last-Event-ID or ?after= (see package sse).
// Events for a job pruned by retention are gone with it: 404.
func (s *Service) serveEvents(w http.ResponseWriter, r *http.Request, id JobID) {
	j, err := s.job(id)
	if err != nil {
		httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeNotFound, err.Error(), 0)
		return
	}
	sse.Serve(w, r, j.eventsSince, func(Event) string { return "state" })
}
