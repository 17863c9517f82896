// Package sse is quditkit's one Server-Sent Events implementation: the
// append-only log that job and sweep streams read by index, the resume
// rule, and the frame writer and reader that the servers, the
// coordinator relay and quditc share. A frame is "id: <index>",
// "event: <name>" and "data: <JSON>" lines ended by a blank line; a
// client that reconnects with Last-Event-ID: N, or asks for ?after=N,
// receives the events after index N.
package sse

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"quditkit/internal/httpapi"
)

// Log is an append-only event log that streams read by index. It has no
// lock of its own: its owner guards it with the mutex of the state the
// events report, so each event is recorded in the critical section of
// the change it describes, and every method needs that mutex held.
type Log[E any] struct {
	events []E
	wake   chan struct{}
	ended  bool
}

// NewLog returns an empty log that appends into buf's backing array
// while it has room, so an owner that knows how many events it records
// can embed their storage.
func NewLog[E any](buf []E) Log[E] { return Log[E]{events: buf[:0]} }

// Append records an event and wakes every stream waiting for one; last
// marks the event that ends the log.
func (l *Log[E]) Append(ev E, last bool) {
	l.events = append(l.events, ev)
	l.ended = last
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// Len reports how many events the log holds: the index of the next.
func (l *Log[E]) Len() int { return len(l.events) }

// Since returns the events after index after, and a channel the next
// Append closes, or nil once the log has ended. The channel is made by
// the first call that needs one, so a log nobody streams never makes
// it. The events returned are never written again, so they may be read
// after the owner's mutex is released.
func (l *Log[E]) Since(after int) ([]E, <-chan struct{}) {
	n := len(l.events)
	evs := l.events[min(max(after, -1), n-1)+1 : n : n]
	if l.ended {
		return evs, nil
	}
	if l.wake == nil {
		l.wake = make(chan struct{})
	}
	return evs, l.wake
}

// Open answers a stream request with the event-stream headers. It
// returns the index of the last event the client has, or -1 for none:
// the ?after= parameter, which must be an integer, or else an integer
// Last-Event-ID header. ok is false when Open has answered with an
// error instead: 400 for a non-integer ?after=, 500 when w cannot
// stream.
func Open(w http.ResponseWriter, r *http.Request) (after int, flusher http.Flusher, ok bool) {
	after = -1
	if n, err := strconv.Atoi(r.Header.Get("Last-Event-ID")); err == nil {
		after = n
	}
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeInvalidRequest, "after must be an integer", 0)
			return 0, nil, false
		}
		after = n
	}
	if flusher, ok = w.(http.Flusher); !ok {
		httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal, "sse: response writer cannot stream", 0)
		return 0, nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	return max(after, -1), flusher, true
}

// Serve streams a log to one client, from the resume point Open reads,
// until the log ends or the client leaves. read returns what Log.Since
// does, taken under the owner's mutex. Each event goes out with its
// index as the id, name(ev) as the event name and its JSON as the data.
func Serve[E any](w http.ResponseWriter, r *http.Request, read func(after int) ([]E, <-chan struct{}), name func(E) string) {
	after, flusher, ok := Open(w, r)
	if !ok {
		return
	}
	for {
		evs, wake := read(after)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			after++
			if Write(w, Frame{ID: strconv.Itoa(after), Event: name(ev), Data: data}) != nil {
				return
			}
		}
		flusher.Flush()
		if wake == nil {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// Frame is one event on the wire. An empty ID writes no id line.
type Frame struct {
	ID    string
	Event string
	Data  []byte
}

// Write writes one frame.
func Write(w io.Writer, f Frame) error {
	if f.ID != "" {
		if _, err := fmt.Fprintf(w, "id: %s\n", f.ID); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", f.Event, f.Data)
	return err
}

// Read parses the frames of a stream and hands each to fn. It returns
// true as soon as fn does, and false when the stream ends first, on a
// frame boundary or not. A frame without data is skipped, as SSE
// clients do; of several data lines the last counts.
func Read(r io.Reader, fn func(Frame) bool) bool {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var f Frame
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			if f.Data != nil && fn(f) {
				return true
			}
			f = Frame{}
			continue
		}
		field, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimPrefix(value, []byte(" "))
		switch string(field) {
		case "id":
			f.ID = string(value)
		case "event":
			f.Event = string(value)
		case "data":
			f.Data = append([]byte(nil), value...)
		}
	}
	return false
}
