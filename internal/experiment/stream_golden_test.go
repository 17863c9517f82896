package experiment_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"quditkit/internal/experiment"
	"quditkit/internal/golden"
	"quditkit/internal/serve"
)

// TestSweepStreamGolden pins the bytes of GET /v1/sweeps/{id}/events
// for a small RB sweep on a real service, from the start and resumed
// with Last-Event-ID and with ?after=. One cell runs at a time, so
// the cell events arrive in index order. Clients parse these frames
// (quditc, examples/sweep), so a moved byte is a wire change.
func TestSweepStreamGolden(t *testing.T) {
	svc := newService(t)
	m, err := experiment.NewManager(experiment.ServeRunner{Service: svc}, experiment.Config{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ts := httptest.NewServer(experiment.NewHandler(m, serve.NewHandler(svc)))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/sweeps?wait=1", "application/json", strings.NewReader(
		`{"kind":"rb","shots":64,"seed":7,"noise":{"depol1":0.05},"rb":{"dim":3,"lengths":[1,2,4],"sequences":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	url := ts.URL + "/v1/sweeps/s-000001/events"
	var out bytes.Buffer
	for _, c := range []struct{ name, query, lastID string }{
		{"from the start", "", ""},
		{"Last-Event-ID: 2", "", "2"},
		{"?after=5", "?after=5", ""},
	} {
		req, err := http.NewRequest(http.MethodGet, url+c.query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.lastID != "" {
			req.Header.Set("Last-Event-ID", c.lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", c.name, resp.StatusCode, err)
		}
		fmt.Fprintf(&out, "== %s\n%s", c.name, body)
	}
	golden.Check(t, filepath.Join("testdata", "events", "rb.txt"), out.Bytes())
}
