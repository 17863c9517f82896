package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"quditkit/internal/httpapi"
	"quditkit/internal/metrics"
	"quditkit/internal/serve"
	"quditkit/internal/tenant"
)

// maxSweepBody bounds the request body of POST /v1/sweeps.
const maxSweepBody = 1 << 20

// NewHandler exposes a Manager over JSON/HTTP in front of a base
// handler (the serve or cluster API), which receives every request
// outside /v1/sweeps. Routes:
//
//	POST   /v1/sweeps             submit a sweep (?wait=1 blocks for settlement)
//	GET    /v1/sweeps/{id}        sweep status with cells (?wait=1 blocks)
//	GET    /v1/sweeps/{id}/events SSE stream of cell settlements and the terminal view
//	DELETE /v1/sweeps/{id}        cancel a running sweep
//
// With a tenant registry configured, every sweep route requires a
// registered X-API-Key (401 with code tenant_unknown otherwise) and a
// tenant can only see its own sweeps — a foreign sweep ID answers 404
// exactly like an unknown one. Errors use the structured envelope of
// package httpapi; quota rejections are 429 with a Retry-After header.
//
// GET /metrics is additionally intercepted to append the sweep-layer
// families (sweeps running, sweep-journal gauges) to the base
// handler's exposition body, and — when the manager runs with a
// journal — GET /v1/stats is intercepted to inject the sweep-journal
// gauges ("sweep_journal") into the base handler's stats body, so one
// endpoint of each kind reports every layer in every role.
func NewHandler(m *Manager, base http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", m.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps/{id}", m.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		acct, ok := serve.Authenticate(w, r, m.cfg.Tenants, m.anon)
		if !ok {
			return
		}
		id := r.PathValue("id")
		if err := m.checkOwner(id, acct); err != nil {
			writeSweepError(w, err)
			return
		}
		m.serveSweepEvents(w, r, id)
	})
	mux.HandleFunc("DELETE /v1/sweeps/{id}", m.handleCancel)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		m.appendMetrics(base, w, r)
	})
	if m.cfg.Journal != nil {
		mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
			m.injectStats(base, w, r)
		})
	}
	mux.Handle("/", base)
	return mux
}

// statsRecorder buffers the base handler's response so the sweep
// layer's additions can be merged before anything reaches the wire.
type statsRecorder struct {
	header http.Header
	code   int
	body   []byte
}

func (sr *statsRecorder) Header() http.Header  { return sr.header }
func (sr *statsRecorder) WriteHeader(code int) { sr.code = code }
func (sr *statsRecorder) Write(p []byte) (int, error) {
	sr.body = append(sr.body, p...)
	return len(p), nil
}

// injectStats serves GET /v1/stats by delegating to the base handler
// and splicing the "sweep_journal" block into its JSON body. Existing
// fields pass through verbatim (values are kept as raw JSON, so no
// number or ordering is disturbed beyond key sorting). Any non-200 or
// non-object response passes through untouched.
func (m *Manager) injectStats(base http.Handler, w http.ResponseWriter, r *http.Request) {
	sr := &statsRecorder{header: make(http.Header), code: http.StatusOK}
	base.ServeHTTP(sr, r)

	var fields map[string]json.RawMessage
	if sr.code == http.StatusOK && json.Unmarshal(sr.body, &fields) == nil {
		if js := m.JournalStats(); js != nil {
			if blob, err := json.Marshal(js); err == nil {
				fields["sweep_journal"] = blob
				if merged, err := json.Marshal(fields); err == nil {
					sr.body = append(merged, '\n')
				}
			}
		}
	}

	for k, vs := range sr.header {
		w.Header()[k] = vs
	}
	w.Header().Del("Content-Length") // body may have grown
	w.WriteHeader(sr.code)
	_, _ = w.Write(sr.body)
}

// appendMetrics serves GET /metrics by delegating to the base handler
// and appending the sweep-layer families to its exposition body. The
// family names are disjoint from the base handler's, so the combined
// output stays valid. A non-200 base response passes through untouched.
func (m *Manager) appendMetrics(base http.Handler, w http.ResponseWriter, r *http.Request) {
	sr := &statsRecorder{header: make(http.Header), code: http.StatusOK}
	base.ServeHTTP(sr, r)

	if sr.code == http.StatusOK {
		var b metrics.Buffer
		m.WriteMetrics(&b)
		var buf bytes.Buffer
		_, _ = b.WriteTo(&buf)
		sr.body = append(sr.body, buf.Bytes()...)
	}

	for k, vs := range sr.header {
		w.Header()[k] = vs
	}
	w.Header().Del("Content-Length") // body has grown
	w.WriteHeader(sr.code)
	_, _ = w.Write(sr.body)
}

// WriteMetrics samples the sweep layer into b as Prometheus families:
// the count of running sweeps, plus the sweep-journal gauges when the
// manager is durable. Per-tenant sweep counters come from the shared
// tenant accounts and are rendered by the base handler.
func (m *Manager) WriteMetrics(b *metrics.Buffer) {
	m.mu.Lock()
	running := 0
	for _, s := range m.sweeps {
		s.mu.Lock()
		if s.state == SweepRunning {
			running++
		}
		s.mu.Unlock()
	}
	m.mu.Unlock()
	b.Family("quditd_sweeps_running", "Sweeps currently running.", metrics.Gauge).
		Add(float64(running))

	m.JournalStats().WriteMetrics(b, sweepJournalFamily)
}

// checkOwner verifies the sweep exists and belongs to acct. With a
// registry configured, a foreign sweep is indistinguishable from an
// unknown one (ErrUnknownSweep), so tenants cannot probe each other's
// IDs.
func (m *Manager) checkOwner(id string, acct *tenant.Account) error {
	s, err := m.sweepByID(id)
	if err != nil {
		return err
	}
	if m.cfg.Tenants != nil && s.acct != acct {
		return fmt.Errorf("%w: %q", ErrUnknownSweep, id)
	}
	return nil
}

// handleSubmit decodes a SweepRequest, expands it, and answers 202 with
// the running view (or, with ?wait=1, blocks and answers 200 with the
// settled view).
func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	acct, ok := serve.Authenticate(w, r, m.cfg.Tenants, m.anon)
	if !ok {
		return
	}
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeInvalidRequest,
			"invalid sweep request: "+err.Error(), 0)
		return
	}
	id, err := m.SubmitAs(acct, req)
	if err != nil {
		writeSweepError(w, err)
		return
	}
	if serve.WantWait(r) {
		view, err := m.Await(r.Context(), id)
		if err != nil {
			httpapi.WriteError(w, http.StatusGatewayTimeout, httpapi.CodeTimeout, err.Error(), 0)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, view)
		return
	}
	view, err := m.Status(id)
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal, err.Error(), 0)
		return
	}
	httpapi.WriteJSON(w, http.StatusAccepted, view)
}

// handleStatus answers the sweep view; ?wait=1 blocks until
// settlement.
func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	acct, ok := serve.Authenticate(w, r, m.cfg.Tenants, m.anon)
	if !ok {
		return
	}
	id := r.PathValue("id")
	if err := m.checkOwner(id, acct); err != nil {
		writeSweepError(w, err)
		return
	}
	var (
		view SweepView
		err  error
	)
	if serve.WantWait(r) {
		view, err = m.Await(r.Context(), id)
	} else {
		view, err = m.Status(id)
	}
	if err != nil {
		writeSweepError(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, view)
}

// handleCancel aborts a running sweep: 202 with the current view on
// success, 404 for unknown (or foreign) IDs, 409 for sweeps already
// settled.
func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	acct, ok := serve.Authenticate(w, r, m.cfg.Tenants, m.anon)
	if !ok {
		return
	}
	id := r.PathValue("id")
	if err := m.checkOwner(id, acct); err != nil {
		writeSweepError(w, err)
		return
	}
	if err := m.Cancel(id); err != nil {
		writeSweepError(w, err)
		return
	}
	view, err := m.Status(id)
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal, err.Error(), 0)
		return
	}
	httpapi.WriteJSON(w, http.StatusAccepted, view)
}

// writeSweepError maps a Manager error onto the structured envelope:
// quota breaches are 429 with Retry-After, a closed manager and an
// admission the journal cannot record 503, unknown sweeps 404,
// finished sweeps 409, expired contexts 504, and anything else
// (ErrBadSweep and friends) 400.
func writeSweepError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, tenant.ErrQuotaExceeded):
		httpapi.WriteError(w, http.StatusTooManyRequests, httpapi.CodeQuotaExceeded,
			err.Error(), serve.RetryAfterQuota)
	case errors.Is(err, ErrManagerClosed), errors.Is(err, serve.ErrNotDurable):
		httpapi.WriteError(w, http.StatusServiceUnavailable, httpapi.CodeUnavailable, err.Error(), 0)
	case errors.Is(err, ErrUnknownSweep):
		httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeNotFound, err.Error(), 0)
	case errors.Is(err, ErrSweepFinished):
		httpapi.WriteError(w, http.StatusConflict, httpapi.CodeConflict, err.Error(), 0)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		httpapi.WriteError(w, http.StatusGatewayTimeout, httpapi.CodeTimeout, err.Error(), 0)
	default:
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeInvalidRequest, err.Error(), 0)
	}
}
