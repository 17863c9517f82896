package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"quditkit/internal/httpapi"
	"quditkit/internal/metrics"
	"quditkit/internal/serve"
	"quditkit/internal/sse"
	"quditkit/internal/tenant"
)

// Handler exposes the coordinator over HTTP. The job surface mirrors a
// standalone quditd exactly — clients need not know they are talking
// to a fleet:
//
//	POST   /v1/jobs               validate, hash, dispatch to a worker
//	                              (?wait=1 blocks until settled,
//	                              surviving worker loss via requeue)
//	GET    /v1/jobs/{id}          proxied status (?wait=1 blocks)
//	GET    /v1/jobs/{id}/events   SSE relay of the owning worker's
//	                              event stream from the client's
//	                              resume point; emits a "requeued"
//	                              event and re-attaches on worker loss
//	DELETE /v1/jobs/{id}          proxied cancel
//	GET    /v1/stats              fleet aggregate with per-worker gauges
//	GET    /metrics               Prometheus text exposition
//
// plus the control plane workers use:
//
//	POST /v1/cluster/register     worker announce/refresh
//	POST /v1/cluster/heartbeat    worker liveness beat
//	POST /v1/cluster/deregister   drain: collect results, then release
//
// With a tenant registry configured, the job routes require a
// registered X-API-Key (401 with code tenant_unknown otherwise) and a
// tenant can only see its own jobs — a foreign job ID answers 404
// exactly like an unknown one. The stats, metrics, and worker control
// plane stay unauthenticated: they are operator and infrastructure
// surfaces, not tenant ones. Errors across every route use the
// structured envelope of package httpapi, and every 429 carries a
// Retry-After header.
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}/events", c.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleCancel)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, c.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		var b metrics.Buffer
		c.WriteMetrics(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = b.WriteTo(w)
	})
	mux.HandleFunc("POST /v1/cluster/register", c.handleRegister)
	mux.HandleFunc("POST /v1/cluster/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/cluster/deregister", c.handleDeregister)
	return mux
}

// recordFor looks up a job record and verifies ownership: with a
// registry configured, a foreign job is indistinguishable from an
// unknown one, so tenants cannot probe each other's IDs.
func (c *Coordinator) recordFor(id string, acct *tenant.Account) (*jobRecord, error) {
	rec, err := c.record(id)
	if err != nil {
		return nil, err
	}
	if c.cfg.Tenants != nil && rec.acct != acct {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return rec, nil
}

// writeClusterError maps a coordinator error onto the structured
// envelope: quota breaches and fleet-wide backpressure are 429 with
// Retry-After, an empty (or closed) fleet and a job the journal
// cannot record 503, unknown jobs 404,
// expired contexts 504, and anything else a 502 naming the upstream
// failure.
func writeClusterError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, tenant.ErrQuotaExceeded):
		httpapi.WriteError(w, http.StatusTooManyRequests, httpapi.CodeQuotaExceeded,
			err.Error(), serve.RetryAfterQuota)
	case errors.Is(err, serve.ErrQueueFull):
		httpapi.WriteError(w, http.StatusTooManyRequests, httpapi.CodeQueueFull,
			err.Error(), serve.RetryAfterQueueFull)
	case errors.Is(err, ErrNoWorkers), errors.Is(err, serve.ErrNotDurable):
		httpapi.WriteError(w, http.StatusServiceUnavailable, httpapi.CodeUnavailable, err.Error(), 0)
	case errors.Is(err, ErrUnknownJob):
		httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeNotFound, err.Error(), 0)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		httpapi.WriteError(w, http.StatusGatewayTimeout, httpapi.CodeTimeout, err.Error(), 0)
	default:
		httpapi.WriteError(w, http.StatusBadGateway, httpapi.CodeUpstream, err.Error(), 0)
	}
}

// handleSubmit validates a submission at the edge, derives its routing
// key, and dispatches it. Validation happens here — with the same
// admission limits a standalone quditd applies — so a malformed job
// burns no worker round-trip and the client sees one consistent 4xx
// surface in both topologies.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	acct, ok := serve.Authenticate(w, r, c.cfg.Tenants, c.anon)
	if !ok {
		return
	}
	payload, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeInvalidRequest,
			"reading request: "+err.Error(), 0)
		return
	}
	var req serve.JobRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeInvalidRequest,
			"decoding request: "+err.Error(), 0)
		return
	}
	rec, err := c.admit(acct, payload, req, true)
	if err != nil {
		switch {
		case errors.Is(err, tenant.ErrQuotaExceeded), errors.Is(err, ErrNoWorkers):
			writeClusterError(w, err)
		default:
			// Everything else admit can fail with is request validation.
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeInvalidRequest, err.Error(), 0)
		}
		return
	}

	view, err := c.dispatch(rec, "")
	if err != nil {
		c.releaseFailed(rec)
		writeClusterError(w, err)
		return
	}
	c.dispatched.Add(1)

	out := c.wrap(rec, view)
	if serve.WantWait(r) && !serve.Terminal(out.State) {
		settled, err := c.await(r.Context(), rec)
		if err != nil {
			httpapi.WriteError(w, http.StatusGatewayTimeout, httpapi.CodeTimeout, err.Error(), 0)
			return
		}
		out = settled
	}
	status := http.StatusAccepted
	if out.State == serve.Done.String() {
		status = http.StatusOK
	}
	httpapi.WriteJSON(w, status, out)
}

// await blocks until the record settles, following it across requeues:
// a long-poll against the current worker that dies with the worker is
// retried against the replacement, so waiting survives mid-wait worker
// loss transparently. ctx bounds the whole wait (HTTP handlers pass the
// request context; RunJob passes the sweep-cell context).
func (c *Coordinator) await(ctx context.Context, rec *jobRecord) (*JobView, error) {
	for attempt := 0; attempt <= c.cfg.MaxRequeues+1; attempt++ {
		workerID, remoteID, _, settled := rec.snapshot()
		if settled != nil {
			return settled, nil
		}
		url := c.workerURL(workerID)
		if url == "" {
			// The worker vanished between snapshot and resolve; let the
			// requeue machinery move the record and try again.
			c.requeue(rec, workerID)
			continue
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			url+"/v1/jobs/"+remoteID+"?wait=1", nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.streamer.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// Transport failure mid-wait: the worker likely died. The
			// requeue path skips already-settled records and the target
			// worker's result cache absorbs re-dispatch, so this is
			// safe even against a worker that merely stalled. The pause
			// keeps a caller whose requeue was deduped (another
			// observer is already moving the job) from burning its
			// attempts before the move lands.
			c.requeue(rec, workerID)
			pause(ctx, 100*time.Millisecond)
			continue
		}
		var view serve.JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			c.requeue(rec, workerID)
			pause(ctx, 100*time.Millisecond)
			continue
		}
		if serve.Terminal(view.State) {
			c.settle(rec, c.wrap(rec, view))
			_, _, _, settled := rec.snapshot()
			return settled, nil
		}
	}
	return nil, fmt.Errorf("cluster: job %s did not settle within the requeue budget", rec.id)
}

// handleStatus proxies a status read to the owning worker; a settled
// record answers from the coordinator's own view without any worker
// round-trip (which is also what makes results of drained workers
// durable).
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	acct, ok := serve.Authenticate(w, r, c.cfg.Tenants, c.anon)
	if !ok {
		return
	}
	rec, err := c.recordFor(r.PathValue("id"), acct)
	if err != nil {
		writeClusterError(w, err)
		return
	}
	if serve.WantWait(r) {
		view, err := c.await(r.Context(), rec)
		if err != nil {
			httpapi.WriteError(w, http.StatusGatewayTimeout, httpapi.CodeTimeout, err.Error(), 0)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, view)
		return
	}
	workerID, remoteID, requeues, settled := rec.snapshot()
	if settled != nil {
		httpapi.WriteJSON(w, http.StatusOK, settled)
		return
	}
	url := c.workerURL(workerID)
	if url != "" {
		var view serve.JobView
		ctx := r.Context()
		req, rerr := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/jobs/"+remoteID, nil)
		if rerr == nil {
			if resp, derr := c.client.Do(req); derr == nil {
				err = json.NewDecoder(resp.Body).Decode(&view)
				resp.Body.Close()
				if err == nil && resp.StatusCode == http.StatusOK {
					if serve.Terminal(view.State) {
						c.settle(rec, c.wrap(rec, view))
					}
					httpapi.WriteJSON(w, http.StatusOK, c.wrap(rec, view))
					return
				}
			}
		}
	}
	// The owning worker is unreachable: requeue now rather than wait
	// for the monitor, then report the job as re-queued.
	c.requeue(rec, workerID)
	if _, _, _, settled := rec.snapshot(); settled != nil {
		httpapi.WriteJSON(w, http.StatusOK, settled)
		return
	}
	workerID, _, requeues, _ = rec.snapshot()
	httpapi.WriteJSON(w, http.StatusOK, &JobView{
		JobView:  serve.JobView{ID: rec.id, State: serve.Queued.String()},
		Worker:   workerID,
		Requeues: requeues,
	})
}

// handleCancel proxies a cancellation to the owning worker.
func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	acct, ok := serve.Authenticate(w, r, c.cfg.Tenants, c.anon)
	if !ok {
		return
	}
	rec, err := c.recordFor(r.PathValue("id"), acct)
	if err != nil {
		writeClusterError(w, err)
		return
	}
	workerID, remoteID, _, settled := rec.snapshot()
	if settled != nil {
		httpapi.WriteError(w, http.StatusConflict, httpapi.CodeConflict,
			"cluster: job already finished", 0)
		return
	}
	url := c.workerURL(workerID)
	if url == "" {
		httpapi.WriteError(w, http.StatusBadGateway, httpapi.CodeUpstream,
			fmt.Sprintf("cluster: worker %s unavailable", workerID), 0)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodDelete, url+"/v1/jobs/"+remoteID, nil)
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal, err.Error(), 0)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadGateway, httpapi.CodeUpstream, err.Error(), 0)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(body)
		return
	}
	var view serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		httpapi.WriteError(w, http.StatusBadGateway, httpapi.CodeUpstream, err.Error(), 0)
		return
	}
	if serve.Terminal(view.State) {
		c.settle(rec, c.wrap(rec, view))
	}
	httpapi.WriteJSON(w, http.StatusOK, c.wrap(rec, view))
}

// handleEvents relays the owning worker's SSE stream, resuming after
// the client's Last-Event-ID or ?after= (see package sse): the worker
// is asked for the events after that point. If the stream breaks
// before a terminal event, the coordinator requeues the job, emits a
// "requeued" event naming the new worker, and re-attaches to the
// replacement's stream, which replays from its own sequence 0. A job
// the coordinator has settled answers with its terminal event alone.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	acct, ok := serve.Authenticate(w, r, c.cfg.Tenants, c.anon)
	if !ok {
		return
	}
	rec, err := c.recordFor(r.PathValue("id"), acct)
	if err != nil {
		writeClusterError(w, err)
		return
	}
	after, flusher, ok := sse.Open(w, r)
	if !ok {
		return
	}
	// after is a seq in the stream of the worker job the record had at
	// requeue count stream; the worker job a requeue moves it to
	// numbers its stream from 0 again.
	_, _, stream, _ := rec.snapshot()
	for attempt := 0; attempt <= c.cfg.MaxRequeues+1; attempt++ {
		workerID, remoteID, requeues, settled := rec.snapshot()
		if settled != nil {
			// Settled records answer from the coordinator: synthesize
			// the terminal event a late subscriber needs.
			ev := serve.Event{State: settled.State, Cached: settled.Cached, Error: settled.Error, Result: settled.Result}
			data, _ := json.Marshal(ev)
			_ = sse.Write(w, sse.Frame{Event: "state", Data: data})
			flusher.Flush()
			return
		}
		if requeues != stream {
			after, stream = -1, requeues
		}
		url := c.workerURL(workerID)
		if url != "" {
			terminal := c.relayWorkerStream(w, flusher, r, rec, url, remoteID, &after)
			if terminal || r.Context().Err() != nil {
				return
			}
		}
		// Stream broke (or worker unknown): move the job and tell the
		// subscriber before re-attaching.
		c.requeue(rec, workerID)
		newWorker, _, newRequeues, _ := rec.snapshot()
		if newRequeues != requeues {
			_ = sse.Write(w, sse.Frame{Event: "requeued",
				Data: fmt.Appendf(nil, `{"worker":%q,"requeues":%d}`, newWorker, newRequeues)})
			flusher.Flush()
		} else {
			// Another observer is moving the job; give the move a beat
			// before re-resolving instead of spinning the attempts.
			pause(r.Context(), 100*time.Millisecond)
		}
	}
}

// pause waits briefly between failover attempts, returning early if
// the caller's context ends.
func pause(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// relayWorkerStream relays one worker event stream, from after the
// event *after, frame by frame, advancing *after past each. A terminal
// event also settles the coordinator's record. It reports whether a
// terminal event was relayed.
func (c *Coordinator) relayWorkerStream(w http.ResponseWriter, flusher http.Flusher, r *http.Request, rec *jobRecord, url, remoteID string, after *int) bool {
	url += "/v1/jobs/" + remoteID + "/events"
	if *after >= 0 {
		url += "?after=" + strconv.Itoa(*after)
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := c.streamer.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	return sse.Read(resp.Body, func(f sse.Frame) bool {
		var ev serve.Event
		terminal := json.Unmarshal(f.Data, &ev) == nil && serve.Terminal(ev.State)
		if terminal {
			c.settle(rec, c.wrap(rec, serve.JobView{
				State: ev.State, Cached: ev.Cached, Error: ev.Error, Result: ev.Result,
			}))
		}
		if n, err := strconv.Atoi(f.ID); err == nil {
			*after = n
		}
		_ = sse.Write(w, f)
		flusher.Flush()
		return terminal
	})
}

// handleRegister admits a worker into the fleet.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeInvalidRequest, err.Error(), 0)
		return
	}
	if req.ID == "" || req.URL == "" {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeInvalidRequest,
			"cluster: register needs id and url", 0)
		return
	}
	c.Register(req.ID, strings.TrimSuffix(req.URL, "/"))
	httpapi.WriteJSON(w, http.StatusOK, RegisterResponse{
		HeartbeatTTLMS: c.cfg.HeartbeatTTL.Milliseconds(),
		IntervalMS:     (c.cfg.HeartbeatTTL / 3).Milliseconds(),
	})
}

// handleHeartbeat refreshes a worker's liveness; 404 tells the worker
// to re-register (e.g. after a coordinator restart).
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeInvalidRequest, err.Error(), 0)
		return
	}
	if !c.Heartbeat(req.ID) {
		httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeNotFound,
			fmt.Sprintf("cluster: unknown worker %q", req.ID), 0)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, struct{}{})
}

// handleDeregister drains a worker: new dispatches stop immediately,
// every unsettled job it owns is collected (or requeued), and only
// then does the response release the worker to exit.
func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req DeregisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeInvalidRequest, err.Error(), 0)
		return
	}
	collected, requeued, err := c.Drain(req.ID)
	if err != nil {
		httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeNotFound, err.Error(), 0)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, DeregisterResponse{Collected: collected, Requeued: requeued})
}

// Drain removes a worker from routing, collects the unsettled results
// it still owns (bounded by DrainTimeout each), requeues whatever it
// could not collect, and forgets the worker. It returns the collected
// and requeued counts.
func (c *Coordinator) Drain(id string) (collected, requeued int, err error) {
	c.mu.Lock()
	n := c.workers[id]
	if n == nil {
		c.mu.Unlock()
		return 0, 0, fmt.Errorf("cluster: unknown worker %q", id)
	}
	n.draining = true
	c.ring.Remove(id)
	_ = c.journalLocked(recWorkerLeave, entry{ID: id})
	url := n.url
	pending := make([]*jobRecord, 0, len(n.assigned))
	for _, rec := range n.assigned {
		pending = append(pending, rec)
	}
	c.mu.Unlock()

	for _, rec := range pending {
		_, remoteID, _, settled := rec.snapshot()
		if settled != nil {
			continue
		}
		view, gerr := c.collectOne(url, remoteID)
		if gerr != nil || !serve.Terminal(view.State) {
			c.requeue(rec, id)
			requeued++
			continue
		}
		c.settle(rec, c.wrap(rec, view))
		collected++
	}

	c.mu.Lock()
	delete(c.workers, id)
	c.mu.Unlock()
	return collected, requeued, nil
}

// collectOne long-polls one job on a draining worker.
func (c *Coordinator) collectOne(url, remoteID string) (serve.JobView, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.DrainTimeout)
	defer cancel()
	var view serve.JobView
	err := c.getJSONWith(ctx, c.streamer, url+"/v1/jobs/"+remoteID+"?wait=1", &view)
	return view, err
}

// getJSONWith fetches one JSON document with an explicit client.
func (c *Coordinator) getJSONWith(ctx context.Context, client *http.Client, url string, v interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: GET %s returned %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
