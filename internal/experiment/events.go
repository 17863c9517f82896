package experiment

import (
	"net/http"

	"quditkit/internal/httpapi"
	"quditkit/internal/sse"
)

// SweepEvent types.
const (
	// EventSweep marks sweep-level transitions: the initial running
	// event and the terminal completed/cancelled event.
	EventSweep = "sweep"
	// EventCell marks one grid cell settling.
	EventCell = "cell"
)

// SweepEvent is one entry in a sweep's ordered event log, streamed to
// SSE readers. Events are replayable: Seq is the position in the log,
// and reconnecting clients resume after the last seen Seq.
type SweepEvent struct {
	// Seq is the event's position in the sweep's log, starting at 0.
	Seq int `json:"seq"`
	// Type is EventSweep or EventCell.
	Type string `json:"type"`
	// State is the sweep state (EventSweep) or the settled cell state
	// (EventCell).
	State string `json:"state"`
	// Cell carries the settled cell on EventCell events.
	Cell *CellView `json:"cell,omitempty"`
	// Sweep carries the full settled view (cells and aggregate) on the
	// terminal EventSweep event.
	Sweep *SweepView `json:"sweep,omitempty"`
}

// terminal reports whether the event ends the stream.
func (e SweepEvent) terminal() bool {
	return e.Type == EventSweep && e.State != SweepRunning
}

// publishLocked records an event on the sweep's log, waking the
// streams that wait for it; the caller holds s.mu, or has not
// published the sweep yet.
func (s *sweep) publishLocked(ev SweepEvent) {
	ev.Seq = s.events.Len()
	s.events.Append(ev, ev.terminal())
}

// serveSweepEvents streams a sweep's event log as server-sent events,
// each named by its type, until the terminal event, resuming after the
// client's Last-Event-ID or ?after= (see package sse).
func (m *Manager) serveSweepEvents(w http.ResponseWriter, r *http.Request, id string) {
	s, err := m.sweepByID(id)
	if err != nil {
		httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeNotFound, err.Error(), 0)
		return
	}
	sse.Serve(w, r, func(after int) ([]SweepEvent, <-chan struct{}) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.events.Since(after)
	}, func(ev SweepEvent) string { return ev.Type })
}
