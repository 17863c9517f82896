package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-cavities", "3", "-cache", "-1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != "127.0.0.1:0" || o.cavities != 3 || o.cache != -1 {
		t.Errorf("options = %+v", o)
	}
	if _, err := parseFlags([]string{"-bogus"}, io.Discard); err == nil {
		t.Error("bogus flag accepted")
	}
}

func TestNewServiceRejectsBadDevice(t *testing.T) {
	if _, err := newService(options{cavities: 0, modes: 0, seed: 1}, nil, nil); err == nil {
		t.Error("empty device accepted")
	}
}

// TestRunStartupServeShutdown is the daemon smoke test: boot on an
// ephemeral port, serve one job end to end, then shut down gracefully
// on context cancellation.
func TestRunStartupServeShutdown(t *testing.T) {
	o, err := parseFlags([]string{"-addr", "127.0.0.1:0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	logger := log.New(io.Discard, "", 0)
	go func() { done <- run(ctx, o, logger, ready) }()

	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr.String()

	body := []byte(`{"circuit":{"dims":[3],"ops":[{"gate":"dft","targets":[0]}]},"shots":16}`)
	resp, err := http.Post(base+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || view.State != "done" {
		t.Fatalf("job response status %d view %+v", resp.StatusCode, view)
	}

	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after graceful shutdown", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// startRun boots run() with the given flags and waits for readiness,
// returning the base URL, the cancel that triggers graceful shutdown,
// and the channel run's error arrives on.
func startRun(t *testing.T, args []string) (string, context.CancelFunc, chan error) {
	t.Helper()
	o, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, o, log.New(io.Discard, "", 0), ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr.String(), cancel, done
	case err := <-done:
		cancel()
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		cancel()
		t.Fatal("server never became ready")
	}
	panic("unreachable")
}

// stopRun cancels the daemon and waits for a clean exit.
func stopRun(t *testing.T, cancel context.CancelFunc, done chan error) {
	t.Helper()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after graceful shutdown", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// submitJob posts one blocking job and returns its settled view.
func submitJob(t *testing.T, base string) (id, state string) {
	t.Helper()
	body := []byte(`{"circuit":{"dims":[3],"ops":[{"gate":"dft","targets":[0]}]},"shots":16}`)
	resp, err := http.Post(base+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job submit status = %d", resp.StatusCode)
	}
	return view.ID, view.State
}

// TestRunJournalRestart boots a journaled standalone daemon, serves a
// job, restarts it on the same directory, and checks that the replayed
// journal carries the job-ID counter across the restart and that the
// stats body reports both durability gauge blocks.
func TestRunJournalRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-journal", dir}

	base, cancel, done := startRun(t, args)
	id, state := submitJob(t, base)
	if id != "j-000001" || state != "done" {
		t.Fatalf("first run job = %s/%s, want j-000001/done", id, state)
	}

	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := stats["journal"]; !ok {
		t.Error("stats missing job journal block")
	}
	if _, ok := stats["sweep_journal"]; !ok {
		t.Error("stats missing sweep_journal block")
	}
	stopRun(t, cancel, done)

	// Restart on the same directory: replay restores the ID counter, so
	// the next accepted job continues the sequence instead of reissuing
	// j-000001.
	base, cancel, done = startRun(t, args)
	id, state = submitJob(t, base)
	if id != "j-000002" || state != "done" {
		t.Fatalf("post-restart job = %s/%s, want j-000002/done", id, state)
	}
	stopRun(t, cancel, done)
}

// TestRunCorruptJournalFailsStartup checks that a damaged journal stops
// the daemon before it listens, rather than serving from partial state.
func TestRunCorruptJournalFailsStartup(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/jobs.wal", []byte("XXXXXXXXXXXXXXXX"), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-journal", dir}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), o, log.New(io.Discard, "", 0), nil); err == nil {
		t.Fatal("run accepted a corrupt journal")
	}
}

func TestParseFlagsRoles(t *testing.T) {
	if _, err := parseFlags([]string{"-role", "boss"}, io.Discard); err == nil {
		t.Error("unknown role accepted")
	}
	if _, err := parseFlags([]string{"-role", "worker"}, io.Discard); err == nil {
		t.Error("worker without -coordinator accepted")
	}
	o, err := parseFlags([]string{"-role", "worker", "-coordinator", "http://127.0.0.1:1", "-id", "w7"}, io.Discard)
	if err != nil || o.role != "worker" || o.id != "w7" {
		t.Errorf("worker flags: %+v err %v", o, err)
	}
	o, err = parseFlags([]string{"-role", "coordinator", "-heartbeat-ttl", "2s"}, io.Discard)
	if err != nil || o.role != "coordinator" || o.hbTTL != 2*time.Second {
		t.Errorf("coordinator flags: %+v err %v", o, err)
	}
}

// TestRunFleetSmoke boots a coordinator and a worker through run() —
// the same code path the binary takes — submits one job through the
// coordinator, and shuts both down gracefully (worker first, draining
// through deregistration).
func TestRunFleetSmoke(t *testing.T) {
	logger := log.New(io.Discard, "", 0)

	coordOpts, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-role", "coordinator", "-heartbeat-ttl", "2s"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	coordCtx, coordCancel := context.WithCancel(context.Background())
	coordReady := make(chan net.Addr, 1)
	coordDone := make(chan error, 1)
	go func() { coordDone <- run(coordCtx, coordOpts, logger, coordReady) }()
	var coordAddr net.Addr
	select {
	case coordAddr = <-coordReady:
	case err := <-coordDone:
		t.Fatalf("coordinator exited: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator never ready")
	}
	coordBase := "http://" + coordAddr.String()

	workerOpts, err := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-role", "worker", "-coordinator", coordBase, "-id", "smoke-w1",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	workerCtx, workerCancel := context.WithCancel(context.Background())
	workerReady := make(chan net.Addr, 1)
	workerDone := make(chan error, 1)
	go func() { workerDone <- run(workerCtx, workerOpts, logger, workerReady) }()
	select {
	case <-workerReady:
	case err := <-workerDone:
		t.Fatalf("worker exited: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("worker never ready")
	}

	body := []byte(`{"circuit":{"dims":[3],"ops":[{"gate":"dft","targets":[0]}]},"shots":16}`)
	resp, err := http.Post(coordBase+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		State  string `json:"state"`
		Worker string `json:"worker"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || view.State != "done" || view.Worker != "smoke-w1" {
		t.Fatalf("fleet job: status %d view %+v", resp.StatusCode, view)
	}

	workerCancel()
	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatalf("worker shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not shut down")
	}
	coordCancel()
	select {
	case err := <-coordDone:
		if err != nil {
			t.Fatalf("coordinator shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator did not shut down")
	}
}

// TestNewHTTPServerBounds pins the connection bounds every role's
// server gets, and that the whole-request timeouts stay off so
// long-polls and SSE streams are not cut.
func TestNewHTTPServerBounds(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v", srv.IdleTimeout)
	}
	if srv.MaxHeaderBytes != maxHeaderBytes || srv.MaxHeaderBytes <= 0 || srv.MaxHeaderBytes >= http.DefaultMaxHeaderBytes {
		t.Errorf("MaxHeaderBytes = %d", srv.MaxHeaderBytes)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v; long-polls and SSE need both unset", srv.ReadTimeout, srv.WriteTimeout)
	}
}
