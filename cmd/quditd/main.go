// Command quditd is the quditkit job-service daemon: it fronts one
// simulated forecast-cavity processor with the asynchronous job queue
// and content-addressed result cache of internal/serve, exposed as a
// JSON-over-HTTP API:
//
//	POST   /v1/jobs               submit a circuit (add ?wait=1 to block)
//	GET    /v1/jobs/{id}          poll a job (add ?wait=1 to block)
//	GET    /v1/jobs/{id}/events   stream state transitions (SSE)
//	DELETE /v1/jobs/{id}          cancel a job
//	GET    /v1/stats              queue and cache counters
//	GET    /metrics               Prometheus text exposition
//	POST   /v1/sweeps             submit a parameterized experiment sweep
//	GET    /v1/sweeps/{id}        poll a sweep (add ?wait=1 to block)
//	GET    /v1/sweeps/{id}/events stream cell settlements + aggregate (SSE)
//	DELETE /v1/sweeps/{id}        cancel a sweep (reaps unsettled cells)
//
// Sweeps (internal/experiment) expand one request — an RB decay curve,
// a QAOA (gamma, beta) grid, an sQED Trotter scan, or a QRC series —
// into many content-addressed jobs, run them through this node's queue
// (or fan them across the fleet under -role coordinator), and fold the
// results into the kind's aggregate server-side. -sweep-parallel tunes
// how many cells one sweep keeps in flight.
//
// Example:
//
//	quditd -addr :8080 -cavities 2 -modes 2 -seed 1
//	curl -s localhost:8080/v1/jobs?wait=1 -d '{
//	  "circuit": {"dims": [3,3,3], "ops": [
//	    {"gate": "dft",  "targets": [0]},
//	    {"gate": "csum", "targets": [0,1]},
//	    {"gate": "csum", "targets": [0,2]}]},
//	  "shots": 512}'
//
// A "device" stanza ({"cavities": N, "modes": M, "level": 0|1|2})
// transpiles the job against a wire-requested forecast chain; the
// response then carries the route report and, at level 2, the counts
// degraded by (and a copy of) the device-derived noise model.
//
// The -role flag selects the topology (see internal/cluster and
// docs/OPERATIONS.md):
//
//	-role standalone    one node, queue + cache + simulator (default)
//	-role coordinator   fleet front door: same /v1/jobs API, jobs
//	                    consistent-hashed across registered workers
//	                    (-heartbeat-ttl tunes liveness)
//	-role worker        a standalone node that also registers with
//	                    -coordinator, heartbeats, and drains on
//	                    shutdown (-advertise, -id, -heartbeat)
//
// quditd shuts down gracefully on SIGINT/SIGTERM: running sweeps are
// cancelled and their cells settled while the listener still serves
// watchers, then in-flight HTTP requests and queued jobs drain before
// the process exits; a worker first deregisters and waits for the
// coordinator to collect its results.
//
// With -tenants FILE the daemon is multi-tenant: the file registers
// API keys with per-tenant quotas (queued jobs, inflight shots,
// concurrent sweeps), weights, and priority classes; every job and
// sweep route then requires an X-API-Key header, queued work drains
// under weighted deficit-round-robin instead of FIFO, and /v1/stats
// and /metrics report per-tenant usage. Results remain byte-identical
// under any scheduling interleaving — seeds are content-addressed, so
// tenancy changes who waits, never what is computed.
//
// With -journal DIR the daemon is crash-durable in every role: every
// accepted job and sweep is recorded in a write-ahead journal
// (internal/journal) before the submitter hears an ID, and every
// settlement after. A restart on the same directory replays unsettled
// work — jobs keep their IDs (and, on a coordinator, their routing),
// sweeps re-run only their unfinished cells — before the listener
// opens, so clients that poll or stream by ID resume where they left
// off. A corrupt journal (anything beyond a torn final record) fails
// startup loudly. The -checkpoint flag is deprecated and ignored.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"quditkit/internal/cluster"
	"quditkit/internal/core"
	"quditkit/internal/experiment"
	"quditkit/internal/journal"
	"quditkit/internal/serve"
	"quditkit/internal/tenant"
)

// options collects the daemon's flag-configurable parameters.
type options struct {
	addr     string
	cavities int
	modes    int
	seed     int64
	shards   int
	queue    int
	cache    int
	retain   int

	role           string
	coordinator    string
	advertise      string
	id             string
	heartbeat      time.Duration
	hbTTL          time.Duration
	controlTimeout time.Duration
	agentTimeout   time.Duration
	checkpoint     string
	journal        string

	sweepParallel int
	tenants       string
}

// parseFlags reads options from an argument list (excluding the
// program name).
func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("quditd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.cavities, "cavities", 2, "forecast cavities in the device chain")
	fs.IntVar(&o.modes, "modes", 2, "modes per cavity (trimmed so routed registers stay simulable)")
	fs.Int64Var(&o.seed, "seed", 1, "processor base seed (all results derive from it)")
	fs.IntVar(&o.shards, "shards", 0, "queue/worker shards (0 = default)")
	fs.IntVar(&o.queue, "queue", 0, "per-shard queue depth (0 = default)")
	fs.Int("batch", 0, "deprecated and ignored: each shard runs one job at a time")
	fs.IntVar(&o.cache, "cache", 0, "result-cache entries (0 = default, negative disables)")
	fs.IntVar(&o.retain, "retain", 0, "settled job records kept for lookup (0 = default, negative keeps all)")
	fs.StringVar(&o.role, "role", "standalone", "node role: standalone, coordinator, or worker")
	fs.StringVar(&o.coordinator, "coordinator", "", "coordinator base URL (required for -role worker)")
	fs.StringVar(&o.advertise, "advertise", "", "base URL the coordinator dispatches to (worker; default http://<bound addr>)")
	fs.StringVar(&o.id, "id", "", "stable worker name (worker; default <bound addr>)")
	fs.DurationVar(&o.heartbeat, "heartbeat", 0, "worker heartbeat interval (0 = accept the coordinator's suggestion)")
	fs.DurationVar(&o.hbTTL, "heartbeat-ttl", 5*time.Second, "coordinator: missed-heartbeat window before a worker is reaped")
	fs.DurationVar(&o.controlTimeout, "control-timeout", 30*time.Second, "coordinator: per-request bound on control traffic to workers (dispatch, cancel, stats)")
	fs.DurationVar(&o.agentTimeout, "agent-timeout", 10*time.Second, "worker: per-request bound on control traffic to the coordinator (register, heartbeat)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "deprecated and ignored: a coordinator journals its jobs under -journal")
	fs.StringVar(&o.journal, "journal", "", "write-ahead journal directory; restart replays unsettled jobs and sweeps from it (empty disables)")
	fs.IntVar(&o.sweepParallel, "sweep-parallel", 0, "cells one sweep keeps in flight (0 = default)")
	fs.StringVar(&o.tenants, "tenants", "", "tenant registry JSON file; enables API-key auth, per-tenant quotas, and weighted scheduling (empty runs single-tenant)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	switch o.role {
	case "standalone", "coordinator", "worker":
	default:
		fmt.Fprintf(stderr, "quditd: unknown role %q (standalone, coordinator, worker)\n", o.role)
		return options{}, fmt.Errorf("unknown role %q", o.role)
	}
	if o.role == "worker" && o.coordinator == "" {
		fmt.Fprintln(stderr, "quditd: -role worker requires -coordinator")
		return options{}, errors.New("-role worker requires -coordinator")
	}
	return o, nil
}

// newService builds the processor and job service the daemon fronts.
// A non-nil jobs journal makes every wire-submitted job crash-durable.
func newService(o options, jobs *journal.Journal, tenants *tenant.Registry) (*serve.Service, error) {
	proc, err := core.NewCompactProcessor(o.cavities, o.modes, o.seed)
	if err != nil {
		return nil, fmt.Errorf("building processor: %w", err)
	}
	return serve.New(proc, serve.Config{
		Shards:     o.shards,
		QueueDepth: o.queue,
		CacheSize:  o.cache,
		RetainJobs: o.retain,
		Journal:    jobs,
		Tenants:    tenants,
	})
}

// loadTenants loads the -tenants registry, or returns nil (single
// tenant, no auth) when the flag is unset.
func loadTenants(o options, logger *log.Logger) (*tenant.Registry, error) {
	if o.tenants == "" {
		return nil, nil
	}
	reg, err := tenant.LoadFile(o.tenants)
	if err != nil {
		return nil, fmt.Errorf("loading tenant registry: %w", err)
	}
	logger.Printf("quditd enforcing %d tenant(s) from %s", len(reg.Accounts()), o.tenants)
	return reg, nil
}

// journals are the daemon's two write-ahead journals, the same in every
// role, with what each recovered; both nil without -journal.
type journals struct {
	jobs, sweeps       *journal.Journal
	jobsRec, sweepsRec journal.Recovery
}

// openJournals prepares the -journal directory and opens both journals.
// Recovery is strict — anything beyond a torn final record is a
// startup error, never silently partial state.
func openJournals(o options) (journals, error) {
	var js journals
	if o.journal == "" {
		return js, nil
	}
	if err := os.MkdirAll(o.journal, 0o755); err != nil {
		return js, fmt.Errorf("creating journal directory: %w", err)
	}
	var err error
	if js.jobs, js.jobsRec, err = journal.Open(o.journal, "jobs"); err != nil {
		return journals{}, fmt.Errorf("opening job journal: %w", err)
	}
	if js.sweeps, js.sweepsRec, err = journal.Open(o.journal, "sweeps"); err != nil {
		js.jobs.Close()
		return journals{}, fmt.Errorf("opening sweep journal: %w", err)
	}
	return js, nil
}

// replay restores one journal's unsettled work before the listener
// opens; without -journal there is nothing to restore.
func replay(o options, logger *log.Logger, what string, rec journal.Recovery, restore func(journal.Recovery) (int, error)) error {
	if o.journal == "" {
		return nil
	}
	n, err := restore(rec)
	if err != nil {
		return fmt.Errorf("replaying %s journal: %w", what, err)
	}
	if n > 0 {
		logger.Printf("quditd %s replayed %d unsettled %s(s) from %s", o.role, n, what, o.journal)
	}
	return nil
}

// Connection bounds shared by every role's API server: a client must
// finish its request headers within readHeaderTimeout, an idle
// keep-alive connection closes after idleTimeout, and headers are
// capped at maxHeaderBytes. ReadTimeout and WriteTimeout stay unset on
// purpose: a ?wait=1 long-poll or an SSE event stream legitimately
// lasts as long as its job or sweep, which no fixed bound fits.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer builds a role's API server with the connection bounds.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// run serves the API until ctx is cancelled, then shuts down
// gracefully. If ready is non-nil it receives the bound listen address
// once the server is accepting connections.
func run(ctx context.Context, o options, logger *log.Logger, ready chan<- net.Addr) error {
	if o.checkpoint != "" {
		logger.Printf("quditd: -checkpoint is deprecated and ignored; a coordinator journals its jobs under -journal")
	}
	js, err := openJournals(o)
	if err != nil {
		return err
	}
	if js.jobs != nil {
		// Closed last: settlements recorded while the queues drain
		// during shutdown must still reach disk.
		defer js.sweeps.Close()
		defer js.jobs.Close()
	}
	if o.role == "coordinator" {
		return runCoordinator(ctx, o, js, logger, ready)
	}
	return runNode(ctx, o, js, logger, ready)
}

// runNode serves a standalone or worker node: the full queue + cache +
// simulator stack, plus (for workers) the cluster agent that makes it
// part of a fleet.
func runNode(ctx context.Context, o options, js journals, logger *log.Logger, ready chan<- net.Addr) error {
	tenants, err := loadTenants(o, logger)
	if err != nil {
		return err
	}
	svc, err := newService(o, js.jobs, tenants)
	if err != nil {
		return err
	}
	if err := replay(o, logger, "job", js.jobsRec, svc.Replay); err != nil {
		svc.Close()
		return err
	}
	mgr, err := experiment.NewManager(experiment.ServeRunner{Service: svc},
		experiment.Config{Parallel: o.sweepParallel, Journal: js.sweeps, Tenants: tenants})
	if err != nil {
		svc.Close()
		return err
	}
	if err := replay(o, logger, "sweep", js.sweepsRec, mgr.Replay); err != nil {
		mgr.Close()
		svc.Close()
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		mgr.Close()
		svc.Close()
		return fmt.Errorf("listening on %s: %w", o.addr, err)
	}
	server := newHTTPServer(experiment.NewHandler(mgr, serve.NewHandler(svc)))

	logger.Printf("quditd %s serving on %s (device: %d cavities x %d modes, seed %d)",
		o.role, ln.Addr(), o.cavities, o.modes, o.seed)

	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ln) }()

	var agent *cluster.Agent
	if o.role == "worker" {
		id := o.id
		if id == "" {
			id = ln.Addr().String()
		}
		advertise := o.advertise
		if advertise == "" {
			advertise = "http://" + ln.Addr().String()
		}
		agent, err = cluster.StartAgent(cluster.AgentConfig{
			CoordinatorURL: o.coordinator,
			ID:             id,
			AdvertiseURL:   advertise,
			Interval:       o.heartbeat,
			Timeout:        o.agentTimeout,
			Logger:         logger,
		})
		if err != nil {
			server.Close()
			mgr.Close()
			svc.Close()
			<-errc
			return err
		}
	}
	// Readiness is signalled only after registration, so a fleet's
	// worker is routable the moment it reports ready.
	if ready != nil {
		ready <- ln.Addr()
	}

	select {
	case err := <-errc:
		mgr.Close()
		svc.Close()
		return err
	case <-ctx.Done():
	}

	logger.Printf("quditd shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if agent != nil {
		// Deregister before closing the listener: the drain blocks
		// until the coordinator has collected every result this worker
		// still owes, and that collection needs our HTTP surface up.
		if err := agent.Drain(shutdownCtx); err != nil {
			logger.Printf("quditd drain: %v", err)
		}
	}
	// Close the sweep manager before the listener: cancellation settles
	// every unsettled cell (and journals the settlements), so watchers
	// still streaming /v1/sweeps/{id}/events receive the terminal
	// cancelled view instead of a torn connection — and a journaled
	// restart knows the sweeps ended on purpose.
	mgr.Close()
	shutdownErr := server.Shutdown(shutdownCtx)
	svc.Close() // drain queued jobs after the listener stops
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("quditd stopped")
	return shutdownErr
}

// runCoordinator serves the fleet front door: same job API, no
// simulator — every job is dispatched to a registered worker.
func runCoordinator(ctx context.Context, o options, js journals, logger *log.Logger, ready chan<- net.Addr) error {
	proc, err := core.NewCompactProcessor(o.cavities, o.modes, o.seed)
	if err != nil {
		return fmt.Errorf("building processor: %w", err)
	}
	tenants, err := loadTenants(o, logger)
	if err != nil {
		return err
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Proc:           proc,
		HeartbeatTTL:   o.hbTTL,
		RetainJobs:     o.retain,
		ControlTimeout: o.controlTimeout,
		Journal:        js.jobs,
		Tenants:        tenants,
	})
	if err != nil {
		return err
	}
	// Jobs first: the restored workers are where resumed sweeps
	// dispatch their unfinished cells.
	if err := replay(o, logger, "job", js.jobsRec, coord.Replay); err != nil {
		coord.Close()
		return err
	}
	mgr, err := experiment.NewManager(coord, experiment.Config{Parallel: o.sweepParallel, Journal: js.sweeps, Tenants: tenants})
	if err != nil {
		coord.Close()
		return err
	}
	if err := replay(o, logger, "sweep", js.sweepsRec, mgr.Replay); err != nil {
		mgr.Close()
		coord.Close()
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		mgr.Close()
		coord.Close()
		return fmt.Errorf("listening on %s: %w", o.addr, err)
	}
	server := newHTTPServer(experiment.NewHandler(mgr, cluster.Handler(coord)))

	logger.Printf("quditd coordinator serving on %s (heartbeat TTL %v)", ln.Addr(), o.hbTTL)
	if ready != nil {
		ready <- ln.Addr()
	}

	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ln) }()

	select {
	case err := <-errc:
		mgr.Close()
		coord.Close()
		return err
	case <-ctx.Done():
	}

	logger.Printf("quditd coordinator shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Sweep manager first, for the same reason as runNode: cells settle
	// as cancelled while event watchers can still hear about it.
	mgr.Close()
	shutdownErr := server.Shutdown(shutdownCtx)
	coord.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("quditd coordinator stopped")
	return shutdownErr
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, logger, nil); err != nil {
		logger.Fatal(err)
	}
}
