package sse

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestLogSince covers the resume arithmetic, the wake channel and the
// end of the log.
func TestLogSince(t *testing.T) {
	var buf [2]int
	l := NewLog(buf[:0])
	evs, wake := l.Since(-1)
	if len(evs) != 0 || wake == nil {
		t.Fatalf("empty log: %v, wake %v", evs, wake)
	}
	l.Append(10, false)
	select {
	case <-wake:
	default:
		t.Fatal("Append did not close the wake channel")
	}
	l.Append(11, false)
	if &l.events[0] != &buf[0] {
		t.Fatal("the log did not append into the buffer it was given")
	}
	for _, c := range []struct {
		after int
		want  string
	}{
		{-1, "[10 11]"}, {-7, "[10 11]"}, {0, "[11]"}, {1, "[]"}, {5, "[]"}, {math.MaxInt, "[]"},
	} {
		evs, wake := l.Since(c.after)
		if got := fmt.Sprint(evs); got != c.want || wake == nil {
			t.Errorf("Since(%d) = %s, wake %v; want %s and a wake channel", c.after, got, wake, c.want)
		}
	}
	// A reader appending to what Since returned cannot write the log.
	evs, _ = l.Since(-1)
	_ = append(evs, 99)
	l.Append(12, true)
	if evs, wake := l.Since(-1); fmt.Sprint(evs) != "[10 11 12]" || wake != nil {
		t.Fatalf("ended log: %v, wake %v", evs, wake)
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
}

// TestOpenResumePoint: ?after= wins over Last-Event-ID, a non-integer
// Last-Event-ID is ignored, a non-integer ?after= is a 400, and every
// stream gets the same headers.
func TestOpenResumePoint(t *testing.T) {
	for _, c := range []struct {
		query, lastID string
		status, after int
	}{
		{"", "", 200, -1},
		{"", "3", 200, 3},
		{"", "x", 200, -1},
		{"", "-9", 200, -1},
		{"after=5", "3", 200, 5},
		{"after=x", "3", 400, 0},
	} {
		r := httptest.NewRequest(http.MethodGet, "/events?"+c.query, nil)
		if c.lastID != "" {
			r.Header.Set("Last-Event-ID", c.lastID)
		}
		w := httptest.NewRecorder()
		after, _, ok := Open(w, r)
		if w.Code != c.status || ok != (c.status == 200) || ok && after != c.after {
			t.Errorf("?%s Last-Event-ID %q: status %d ok %v after %d, want %d and %d",
				c.query, c.lastID, w.Code, ok, after, c.status, c.after)
		}
		if ok {
			h := w.Header()
			if h.Get("Content-Type") != "text/event-stream" || h.Get("Cache-Control") != "no-cache" || h.Get("Connection") != "keep-alive" {
				t.Errorf("headers %v", h)
			}
		} else if !strings.Contains(w.Body.String(), `"code":"invalid_request"`) {
			t.Errorf("400 body %s", w.Body)
		}
	}
}

// TestServeStreamsUntilTheLogEnds: a reader that waits receives each
// event as it is appended, with its index as the id, and the stream
// ends with the log; a reader resuming past the end of an ended log
// gets an empty stream rather than a hang.
func TestServeStreamsUntilTheLogEnds(t *testing.T) {
	type ev struct {
		N int `json:"n"`
	}
	var mu sync.Mutex // the owner's lock
	l := NewLog[ev](nil)
	read := func(after int) ([]ev, <-chan struct{}) {
		mu.Lock()
		defer mu.Unlock()
		return l.Since(after)
	}
	l.Append(ev{0}, false)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		Serve(w, r, read, func(e ev) string { return fmt.Sprint("n", e.N) })
	}))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := make(chan Frame)
	go func() {
		defer close(frames)
		Read(resp.Body, func(f Frame) bool {
			frames <- f
			return false
		})
	}()
	next := func() Frame {
		select {
		case f := <-frames:
			return f
		case <-time.After(10 * time.Second):
			t.Fatal("no frame")
			return Frame{}
		}
	}
	if f := next(); f.ID != "0" || f.Event != "n0" || string(f.Data) != `{"n":0}` {
		t.Fatalf("first frame %+v", f)
	}
	for i := 1; i <= 2; i++ {
		mu.Lock()
		l.Append(ev{i}, i == 2)
		mu.Unlock()
		if f := next(); f.ID != fmt.Sprint(i) || string(f.Data) != fmt.Sprintf(`{"n":%d}`, i) {
			t.Fatalf("frame %d: %+v", i, f)
		}
	}
	if f, open := <-frames; open {
		t.Fatalf("stream went on after the log ended: %+v", f)
	}

	resp2, err := http.Get(ts.URL + "?after=7")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if Read(resp2.Body, func(Frame) bool { return true }) {
		t.Fatal("resuming past the end replayed a frame")
	}
}

// TestServeStopsWhenTheClientLeaves: a stream waiting on an open log
// returns when the request context ends.
func TestServeStopsWhenTheClientLeaves(t *testing.T) {
	l := NewLog[int](nil)
	ctx, cancel := context.WithCancel(context.Background())
	r := httptest.NewRequest(http.MethodGet, "/", nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(httptest.NewRecorder(), r, l.Since, func(int) string { return "n" })
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Serve kept waiting after the client left")
	}
}

// TestWriteRead: frames round-trip, an empty ID writes no id line, and
// the reader skips comments and data-less frames, keeps the last of
// several data lines, stops when fn says so, and drops a frame cut off
// by the end of the stream.
func TestWriteRead(t *testing.T) {
	var b strings.Builder
	for _, f := range []Frame{
		{ID: "0", Event: "state", Data: []byte(`{"seq":0}`)},
		{Event: "requeued", Data: []byte(`{"worker":"w2"}`)},
	} {
		if err := Write(&b, f); err != nil {
			t.Fatal(err)
		}
	}
	const want = "id: 0\nevent: state\ndata: {\"seq\":0}\n\nevent: requeued\ndata: {\"worker\":\"w2\"}\n\n"
	if b.String() != want {
		t.Fatalf("wrote %q, want %q", b.String(), want)
	}

	stream := b.String() + ": a comment\n\nid: 5\nevent: empty\n\ndata: old\ndata:new\n\nid: 9\nevent: stop\ndata: x\n\nid: 10\ndata: never\n\n"
	var got []string
	stopped := Read(strings.NewReader(stream), func(f Frame) bool {
		got = append(got, fmt.Sprintf("%s|%s|%s", f.ID, f.Event, f.Data))
		return f.Event == "stop"
	})
	if !stopped || strings.Join(got, " ") != `0|state|{"seq":0} |requeued|{"worker":"w2"} ||new 9|stop|x` {
		t.Fatalf("stopped %v, read %q", stopped, got)
	}

	got = nil
	if Read(strings.NewReader("id: 1\ndata: whole\n\nid: 2\ndata: cut"), func(f Frame) bool {
		got = append(got, f.ID)
		return false
	}) || strings.Join(got, " ") != "1" {
		t.Fatalf("read %q from a cut stream", got)
	}
}
