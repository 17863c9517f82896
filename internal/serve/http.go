package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"quditkit/internal/httpapi"
	"quditkit/internal/metrics"
	"quditkit/internal/tenant"
)

// Retry-After hints for the two 429 classes: queue backpressure
// clears as soon as the shard's worker pops its next job, a quota
// breach only as the tenant's own work settles, so the quota hint is
// longer.
const (
	// RetryAfterQueueFull is the backoff hint sent with queue_full.
	RetryAfterQueueFull = time.Second
	// RetryAfterQuota is the backoff hint sent with quota_exceeded.
	RetryAfterQuota = 2 * time.Second
)

// NewHandler exposes a Service over a small JSON/HTTP API:
//
//	POST   /v1/jobs               submit a JobRequest; 200 with the
//	                              settled JobView on a cache hit, 202
//	                              otherwise (?wait=1 blocks until the
//	                              job settles)
//	GET    /v1/jobs/{id}          job status, with the result once done
//	                              (?wait=1 blocks until the job settles)
//	GET    /v1/jobs/{id}/events   Server-Sent Events stream of the
//	                              job's state transitions, ending with
//	                              the terminal event (result included)
//	DELETE /v1/jobs/{id}          cancel a queued or running job
//	GET    /v1/stats              service and cache counters
//	GET    /metrics               Prometheus text exposition
//
// All error responses use the httpapi envelope; 429s carry a
// Retry-After header. When the Service has a tenant registry, every
// /v1/jobs route requires a registered X-API-Key (401 tenant_unknown
// otherwise) and a tenant can only see its own jobs — other tenants'
// IDs are indistinguishable from unknown ones. /v1/stats and /metrics
// are operator surfaces and stay unauthenticated.
//
// cmd/quditd serves this handler; tests drive it via httptest.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		acct, ok := Authenticate(w, r, s.cfg.Tenants, s.anon)
		if !ok {
			return
		}
		var req JobRequest
		// MaxOps gate specs fit comfortably in 8 MiB; anything larger
		// is hostile or broken, and must not buffer unbounded. The raw
		// body is kept: it is the verbatim payload the journal records,
		// so a replayed job is byte-for-byte the client's submission.
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeInvalidRequest,
				fmt.Sprintf("reading request: %v", err), 0)
			return
		}
		if err := json.Unmarshal(raw, &req); err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeInvalidRequest,
				fmt.Sprintf("decoding request: %v", err), 0)
			return
		}
		circ, err := BuildCircuit(req.Circuit)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeInvalidRequest, err.Error(), 0)
			return
		}
		opts, err := req.Options(s.proc)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeInvalidRequest, err.Error(), 0)
			return
		}
		id, err := s.EnqueueJournaled(acct, raw, circ, opts...)
		if err != nil {
			WriteServiceError(w, err)
			return
		}
		var view JobView
		if WantWait(r) {
			// AwaitView holds the job record across the wait, so a
			// concurrent retention prune cannot lose the outcome; the
			// job's own terminal error lands in the JobView body, and
			// only the request context expiring is a transport failure.
			view, err = s.AwaitView(r.Context(), id)
		} else {
			view, err = s.jobView(id)
		}
		switch {
		case errors.Is(err, ErrUnknownJob):
			// Pruned by retention between enqueue and view.
			httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeNotFound, err.Error(), 0)
			return
		case err != nil:
			httpapi.WriteError(w, http.StatusGatewayTimeout, httpapi.CodeTimeout, err.Error(), 0)
			return
		}
		status := http.StatusAccepted
		if view.State == Done.String() {
			status = http.StatusOK
		}
		httpapi.WriteJSON(w, status, view)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		acct, ok := Authenticate(w, r, s.cfg.Tenants, s.anon)
		if !ok {
			return
		}
		id := JobID(r.PathValue("id"))
		if err := s.checkOwner(id, acct); err != nil {
			WriteServiceError(w, err)
			return
		}
		s.serveEvents(w, r, id)
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		acct, ok := Authenticate(w, r, s.cfg.Tenants, s.anon)
		if !ok {
			return
		}
		id := JobID(r.PathValue("id"))
		if err := s.checkOwner(id, acct); err != nil {
			WriteServiceError(w, err)
			return
		}
		var view JobView
		var err error
		if WantWait(r) {
			view, err = s.AwaitView(r.Context(), id)
		} else {
			view, err = s.jobView(id)
		}
		switch {
		case errors.Is(err, ErrUnknownJob):
			httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeNotFound, err.Error(), 0)
			return
		case err != nil:
			httpapi.WriteError(w, http.StatusGatewayTimeout, httpapi.CodeTimeout, err.Error(), 0)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, view)
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		acct, ok := Authenticate(w, r, s.cfg.Tenants, s.anon)
		if !ok {
			return
		}
		id := JobID(r.PathValue("id"))
		if err := s.checkOwner(id, acct); err != nil {
			WriteServiceError(w, err)
			return
		}
		if err := s.CancelJob(id); err != nil {
			WriteServiceError(w, err)
			return
		}
		view, err := s.jobView(id)
		if err != nil {
			httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal, err.Error(), 0)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, view)
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, s.Stats())
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		var b metrics.Buffer
		s.WriteMetrics(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = b.WriteTo(w)
	})

	return mux
}

// Authenticate resolves the request's tenant account for every job,
// sweep and coordinator route. With a nil registry every caller is
// anon; with one, a missing or unknown X-API-Key is refused with 401
// tenant_unknown and ok is false (the response has been written).
func Authenticate(w http.ResponseWriter, r *http.Request, reg *tenant.Registry, anon *tenant.Account) (*tenant.Account, bool) {
	if reg == nil {
		return anon, true
	}
	acct, err := reg.Lookup(r.Header.Get("X-API-Key"))
	if err != nil {
		httpapi.WriteError(w, http.StatusUnauthorized, httpapi.CodeTenantUnknown,
			"missing or unknown X-API-Key", 0)
		return nil, false
	}
	return acct, true
}

// checkOwner enforces per-tenant visibility: with a registry
// configured, a job owned by another account is reported exactly like
// an unknown ID, so tenants cannot probe each other's job space.
func (s *Service) checkOwner(id JobID, acct *tenant.Account) error {
	if s.cfg.Tenants == nil {
		return nil
	}
	j, err := s.job(id)
	if err != nil {
		return err
	}
	if j.acct != acct {
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return nil
}

// WriteServiceError maps a serve-layer error onto the httpapi
// envelope: backpressure and quota breaches become 429s with
// Retry-After, shutdown and an admission the journal cannot record
// 503, unknown IDs 404, settled-job conflicts 409, and anything else
// (admission failures) 400. Shared by the experiment layer, which
// surfaces the same error set.
func WriteServiceError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		httpapi.WriteError(w, http.StatusTooManyRequests, httpapi.CodeQueueFull, err.Error(), RetryAfterQueueFull)
	case errors.Is(err, tenant.ErrQuotaExceeded):
		httpapi.WriteError(w, http.StatusTooManyRequests, httpapi.CodeQuotaExceeded, err.Error(), RetryAfterQuota)
	case errors.Is(err, ErrClosed), errors.Is(err, ErrNotDurable):
		httpapi.WriteError(w, http.StatusServiceUnavailable, httpapi.CodeUnavailable, err.Error(), 0)
	case errors.Is(err, ErrUnknownJob):
		httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeNotFound, err.Error(), 0)
	case errors.Is(err, ErrFinished):
		httpapi.WriteError(w, http.StatusConflict, httpapi.CodeConflict, err.Error(), 0)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		httpapi.WriteError(w, http.StatusGatewayTimeout, httpapi.CodeTimeout, err.Error(), 0)
	default:
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeInvalidRequest, err.Error(), 0)
	}
}

// jobView assembles the wire view of a job, including its result when
// settled successfully.
func (s *Service) jobView(id JobID) (JobView, error) {
	j, err := s.job(id)
	if err != nil {
		return JobView{}, err
	}
	return viewOf(j), nil
}

// AwaitView blocks until the job settles (or ctx expires) and returns
// its wire view. It resolves the record once up front and holds the
// pointer across the wait, so retention pruning the job table in the
// meantime cannot lose the outcome. The returned error is transport
// only (unknown ID, expired ctx); a job's own failure is reported
// inside the view.
func (s *Service) AwaitView(ctx context.Context, id JobID) (JobView, error) {
	j, err := s.job(id)
	if err != nil {
		return JobView{}, err
	}
	select {
	case <-j.done:
		return viewOf(j), nil
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
}

// viewOf snapshots one job record into the wire view.
func viewOf(j *job) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	view := JobView{ID: string(j.id), State: j.state.String(), Cached: j.cached}
	if j.err != nil {
		view.Error = j.err.Error()
	}
	if j.state == Done {
		res := NewResultView(j.res)
		view.Result = &res
	}
	return view
}

// WantWait reports whether the request opted into blocking until the
// job or sweep settles: a bare ?wait or any value other than an
// explicit false ("0", "false", or another strconv.ParseBool false)
// blocks. Jobs, sweeps and the coordinator all parse ?wait with it.
func WantWait(r *http.Request) bool {
	if !r.URL.Query().Has("wait") {
		return false
	}
	v := r.URL.Query().Get("wait")
	if v == "" {
		return true
	}
	b, err := strconv.ParseBool(v)
	return err != nil || b
}
