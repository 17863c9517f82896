package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made: every span of one
// operation shares Req, and Parent names the span that caused it
// (zero for an operation's root).
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Req     int64   `json:"req"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newReq issues a request ID for one operation.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(req, parent int64, name string) int64 {
	if t == nil {
		return 0
	}
	now := float64(time.Since(t.t0)) / float64(time.Microsecond)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, StartUS: now})
	return id
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := float64(time.Since(t.t0)) / float64(time.Microsecond)
	t.mu.Lock()
	t.spans[id-1].EndUS = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, the median self time in ms: a
// span's duration minus the part of it that its children cover.
// Children of one span never overlap here (each operation's calls are
// issued serially), so their durations are summed.
func (t *tracer) selfTimes() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndUS - s.StartUS
		}
	}
	byName := make(map[string][]float64)
	for _, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], (s.EndUS-s.StartUS-child[s.ID])/1000)
	}
	out := make(map[string]float64, len(byName))
	for name, xs := range byName {
		out[name] = median(xs)
	}
	return out
}

// write saves every span, ordered by start, as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
