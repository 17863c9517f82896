package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"testing"

	"quditkit/internal/golden"
	"quditkit/internal/serve"
)

// TestRelayStreamGolden pins the bytes of the coordinator's
// GET /v1/jobs/{id}/events: first for a job the coordinator has not
// settled, where it relays the worker's stream, then for the same job
// once that relay settled it, where it answers from its own record.
func TestRelayStreamGolden(t *testing.T) {
	f := newFleet(t, serve.Config{}, "w1")
	view, status := postJob(t, f.ts.URL, ghzBody(64, 42), false)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d %+v", status, view)
	}
	var out bytes.Buffer
	for _, name := range []string{"unsettled", "settled"} {
		resp, err := http.Get(f.ts.URL + "/v1/jobs/" + view.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", name, resp.StatusCode, err)
		}
		fmt.Fprintf(&out, "== %s\n%s", name, body)
	}
	golden.Check(t, filepath.Join("testdata", "events", "relay.txt"), out.Bytes())
}
