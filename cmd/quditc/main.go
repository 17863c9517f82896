// Command quditc is the quditkit client tool: a compiler front end and
// a job-service client in one binary.
//
// The transpile subcommand lowers a wire-format circuit onto a
// forecast device through the transpile pipeline — exactly as quditd
// would for a job carrying the same "device" stanza — and prints the
// physical circuit with its cost report, without executing anything:
//
//	quditc transpile [-cavities N] [-modes M] [-level 0|1|2] [-seed S]
//	                 [-json] [circuit.json]
//
// The submit subcommand posts a full JobRequest (the POST /v1/jobs
// body: circuit plus backend/shots/noise/device stanzas) to a quditd
// node or cluster coordinator, and the watch subcommand attaches to a
// job's Server-Sent-Events stream, printing each state transition as
// it happens instead of long-polling:
//
//	quditc submit [-addr URL] [-watch] [-json] [-timeout D] [job.json]
//	quditc watch  [-addr URL] [-json] [-timeout D] <job-id>
//
// With -watch, submit streams the new job's events until it settles
// and exits non-zero if the terminal state is not "done". Input is
// read from the named file, or stdin when no file is given.
//
// The sweep subcommand posts a SweepRequest (the POST /v1/sweeps body:
// kind, shots, seed, and one of the rb/qaoa/sqed/qrc grid specs) and,
// with -watch, streams per-cell settlements and the final server-side
// aggregate:
//
//	quditc sweep [-addr URL] [-watch] [-json] [-timeout D] [sweep.json]
//
// Every subcommand accepts -api-key (default: the QUDITC_API_KEY
// environment variable), sent as the X-API-Key header to a quditd
// running with -tenants; transpile accepts it for flag-set uniformity
// but runs locally and never sends it. Server errors arrive as the
// structured envelope {"error":{"code","message","retry_after_ms"}}
// and print as "code: message"; the exit code distinguishes failure
// classes so scripts can branch without parsing text: 2 for
// quota_exceeded, 3 for transient errors (queue_full, unavailable,
// timeout, upstream_error), 1 for everything else.
//
// Every watch survives dropped connections — and daemon restarts: the
// client retries refused reconnects with exponential backoff and
// resumes with the standard Last-Event-ID header, so a quditd running
// with -journal can crash and come back mid-watch without the client
// noticing more than a pause. Against a daemon without a journal a
// restart forgets the ID, and the watch ends with a "stream lost"
// error rather than hanging. -timeout bounds the total watch across
// reconnects (0 waits forever).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"quditkit/internal/core"
	"quditkit/internal/experiment"
	"quditkit/internal/httpapi"
	"quditkit/internal/serve"
	"quditkit/internal/sse"
	"quditkit/internal/transpile"
)

// Exit codes: scripts branch on these, not on stderr text.
const (
	exitGeneric   = 1 // malformed input, not found, internal errors, ...
	exitQuota     = 2 // quota_exceeded: the tenant is over a configured limit
	exitTransient = 3 // queue_full, unavailable, timeout, upstream_error: retry later
)

// exitError tags an error with the process exit code it should
// produce, so main can distinguish quota breaches from transient
// backpressure without re-parsing messages.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return e.err.Error() }
func (e *exitError) Unwrap() error { return e.err }

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quditc:", err)
		var ee *exitError
		if errors.As(err, &ee) {
			os.Exit(ee.code)
		}
		os.Exit(exitGeneric)
	}
}

// apiKeyFlag registers the common -api-key flag, defaulting to the
// QUDITC_API_KEY environment variable so CI jobs can set the key once.
func apiKeyFlag(fs *flag.FlagSet) *string {
	return fs.String("api-key", os.Getenv("QUDITC_API_KEY"),
		"tenant API key sent as X-API-Key (default: $QUDITC_API_KEY)")
}

// apiError converts a non-2xx response body into an error. Envelope
// bodies render as "code: message" with the failure-class exit code;
// anything else (an older server, an intervening proxy) falls back to
// the raw body and the generic exit code.
func apiError(verb string, status int, raw []byte) error {
	det, ok := httpapi.Decode(raw)
	if !ok {
		return fmt.Errorf("%s returned %d: %s", verb, status, strings.TrimSpace(string(raw)))
	}
	err := fmt.Errorf("%s returned %d: %s: %s", verb, status, det.Code, det.Message)
	switch {
	case det.Code == httpapi.CodeQuotaExceeded:
		return &exitError{code: exitQuota, err: err}
	case det.Code.Transient():
		return &exitError{code: exitTransient, err: err}
	}
	return err
}

// postJSON posts body to url with the tenant key attached.
func postJSON(url, apiKey string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	return http.DefaultClient.Do(req)
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: quditc transpile|submit|watch|sweep [flags] [input]")
	}
	switch args[0] {
	case "transpile":
		return runTranspile(args[1:], stdin, stdout)
	case "submit":
		return runSubmit(args[1:], stdin, stdout)
	case "watch":
		return runWatch(args[1:], stdout)
	case "sweep":
		return runSweep(args[1:], stdin, stdout)
	default:
		return fmt.Errorf("unknown subcommand %q (have: transpile, submit, watch, sweep)", args[0])
	}
}

// runSubmit posts one JobRequest and either prints the returned view
// or (with -watch) follows the job's event stream to settlement.
func runSubmit(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("quditc submit", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "quditd or coordinator base URL")
	watch := fs.Bool("watch", false, "stream the job's events until it settles")
	asJSON := fs.Bool("json", false, "print raw JSON instead of the human summary")
	timeout := fs.Duration("timeout", 0, "total watch budget across reconnects (0 = no limit)")
	apiKey := apiKeyFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var in io.Reader = stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	body, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	resp, err := postJSON(strings.TrimSuffix(*addr, "/")+"/v1/jobs", *apiKey, body)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return apiError("submit", resp.StatusCode, raw)
	}
	var view serve.JobView
	if err := json.Unmarshal(raw, &view); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if !*watch {
		if *asJSON {
			fmt.Fprintln(stdout, string(raw))
		} else {
			fmt.Fprintf(stdout, "job %s: %s\n", view.ID, view.State)
		}
		return nil
	}
	return watchJob(*addr, *apiKey, view.ID, *asJSON, *timeout, stdout)
}

// runWatch attaches to an existing job's event stream.
func runWatch(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("quditc watch", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "quditd or coordinator base URL")
	asJSON := fs.Bool("json", false, "print raw event JSON instead of the human summary")
	timeout := fs.Duration("timeout", 0, "total watch budget across reconnects (0 = no limit)")
	apiKey := apiKeyFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: quditc watch [-addr URL] [-api-key KEY] [-json] [-timeout D] <job-id>")
	}
	return watchJob(*addr, *apiKey, fs.Arg(0), *asJSON, *timeout, stdout)
}

// streamSSE reconnect pacing: dropped streams and refused connections
// retry with exponential backoff so a watch rides out a daemon restart
// (a journaled quditd replays unsettled IDs before it listens again)
// without hammering the listen address while it is down.
const (
	reconnectBase = 250 * time.Millisecond
	reconnectCap  = 5 * time.Second
)

// streamSSE follows a Server-Sent-Events endpoint until handle reports
// the terminal event, reconnecting on dropped streams with the
// standard Last-Event-ID header so already-seen events are not
// replayed. Connection failures and non-200 answers on the first
// attempt return immediately (the target is unreachable or unknown —
// retrying cannot help); once a stream has been established, drops and
// refused reconnects retry with exponential backoff until timeout
// (zero = forever). A 429 answer is backpressure, not loss: the
// server's Retry-After (when present) replaces the client's own
// backoff delay before the next attempt. A quditd running with
// -journal survives this loop: its restart replays unsettled jobs and
// sweeps before listening, so the resumed stream picks up after
// Last-Event-ID. Any other non-200 on a reconnect still reports the
// stream as lost — the ID settled before the crash or the daemon runs
// without a journal.
func streamSSE(url, apiKey string, timeout time.Duration, handle func(sse.Frame) bool) error {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	lastID := ""
	connected := false
	delay := reconnectBase
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		if apiKey != "" {
			req.Header.Set("X-API-Key", apiKey)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("watch timed out after %v", timeout)
			}
			if !connected {
				return err
			}
			if !sleepCtx(ctx, delay) {
				return fmt.Errorf("watch timed out after %v", timeout)
			}
			delay = nextDelay(delay)
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			wait := retryAfterDelay(resp, delay)
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if !sleepCtx(ctx, wait) {
				return fmt.Errorf("watch timed out after %v", timeout)
			}
			delay = nextDelay(delay)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if connected {
				return fmt.Errorf("stream lost: reconnect returned %d (the id settled before a restart, or the server runs without -journal): %s",
					resp.StatusCode, strings.TrimSpace(string(raw)))
			}
			return apiError("events", resp.StatusCode, raw)
		}
		connected = true
		delay = reconnectBase // healthy connection resets the backoff
		terminal := consumeSSE(resp.Body, &lastID, handle)
		resp.Body.Close()
		if terminal {
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("watch timed out after %v", timeout)
		}
		// The stream dropped mid-flight; resume after the last seen
		// event.
		if !sleepCtx(ctx, delay) {
			return fmt.Errorf("watch timed out after %v", timeout)
		}
		delay = nextDelay(delay)
	}
}

// retryAfterDelay prefers the server's Retry-After header (whole
// seconds, per the envelope contract) over the client's own backoff.
func retryAfterDelay(resp *http.Response, fallback time.Duration) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return fallback
}

// nextDelay doubles a reconnect delay up to the cap.
func nextDelay(d time.Duration) time.Duration {
	if d *= 2; d > reconnectCap {
		return reconnectCap
	}
	return d
}

// sleepCtx sleeps for d, cut short by ctx; it reports whether the full
// wait elapsed (false = the watch budget ran out first).
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// consumeSSE reads one SSE connection, tracking event IDs for
// resumption and dispatching each complete frame. It returns true when
// handle signalled the terminal event, false when the stream dropped.
func consumeSSE(r io.Reader, lastID *string, handle func(sse.Frame) bool) bool {
	return sse.Read(r, func(f sse.Frame) bool {
		if f.ID != "" {
			*lastID = f.ID
		}
		return handle(f)
	})
}

// watchJob consumes the SSE stream of one job until its terminal
// event, printing each transition. It returns an error when the job
// settles anywhere but "done", so scripts can gate on the exit code.
func watchJob(addr, apiKey, id string, asJSON bool, timeout time.Duration, stdout io.Writer) error {
	url := strings.TrimSuffix(addr, "/") + "/v1/jobs/" + id + "/events"
	var final string
	err := streamSSE(url, apiKey, timeout, func(f sse.Frame) bool {
		if asJSON {
			fmt.Fprintf(stdout, "%s\n", f.Data)
		}
		var ev serve.Event
		if err := json.Unmarshal(f.Data, &ev); err != nil {
			return false
		}
		if f.Event == "requeued" {
			if !asJSON {
				fmt.Fprintf(stdout, "%s  %s\n", id, "requeued onto another worker")
			}
			return false
		}
		if !asJSON {
			printEvent(stdout, id, ev)
		}
		if serve.Terminal(ev.State) {
			final = ev.State
			return true
		}
		return false
	})
	if err != nil {
		return err
	}
	if final == "" {
		return fmt.Errorf("event stream for %s ended before the job settled", id)
	}
	if final != "done" {
		return fmt.Errorf("job %s settled %s", id, final)
	}
	return nil
}

// runSweep posts one SweepRequest and either prints the accepted view
// or (with -watch) follows the sweep's event stream to settlement.
func runSweep(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("quditc sweep", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "quditd or coordinator base URL")
	watch := fs.Bool("watch", false, "stream cell settlements until the sweep settles")
	asJSON := fs.Bool("json", false, "print raw JSON instead of the human summary")
	timeout := fs.Duration("timeout", 0, "total watch budget across reconnects (0 = no limit)")
	apiKey := apiKeyFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var in io.Reader = stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	body, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	resp, err := postJSON(strings.TrimSuffix(*addr, "/")+"/v1/sweeps", *apiKey, body)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return apiError("sweep submit", resp.StatusCode, raw)
	}
	var view experiment.SweepView
	if err := json.Unmarshal(raw, &view); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if !*watch {
		if *asJSON {
			fmt.Fprintln(stdout, string(raw))
		} else {
			fmt.Fprintf(stdout, "sweep %s: %s (%d cells, kind %s)\n", view.ID, view.State, view.TotalCells, view.Kind)
		}
		return nil
	}
	return watchSweep(*addr, *apiKey, view.ID, *asJSON, *timeout, stdout)
}

// watchSweep consumes a sweep's SSE stream until the terminal event,
// printing cell settlements as progress and the final aggregate. The
// exit code gates on the sweep completing (failed cells are reported
// but tolerated — that is the sweep contract).
func watchSweep(addr, apiKey, id string, asJSON bool, timeout time.Duration, stdout io.Writer) error {
	url := strings.TrimSuffix(addr, "/") + "/v1/sweeps/" + id + "/events"
	var final *experiment.SweepView
	settled := 0
	err := streamSSE(url, apiKey, timeout, func(f sse.Frame) bool {
		if asJSON {
			fmt.Fprintf(stdout, "%s\n", f.Data)
		}
		var ev experiment.SweepEvent
		if err := json.Unmarshal(f.Data, &ev); err != nil {
			return false
		}
		switch {
		case ev.Type == experiment.EventCell && ev.Cell != nil:
			settled++
			if !asJSON {
				printCell(stdout, id, settled, ev.Cell)
			}
			return false
		case ev.Type == experiment.EventSweep && ev.State != experiment.SweepRunning:
			if ev.Sweep != nil {
				final = ev.Sweep
			}
			return true
		}
		return false
	})
	if err != nil {
		return err
	}
	if final == nil {
		return fmt.Errorf("event stream for %s ended before the sweep settled", id)
	}
	if !asJSON {
		printAggregate(stdout, id, final)
	}
	if final.State != experiment.SweepCompleted {
		return fmt.Errorf("sweep %s settled %s", id, final.State)
	}
	return nil
}

// printCell renders one settled cell for the human-readable stream.
func printCell(stdout io.Writer, id string, settled int, cv *experiment.CellView) {
	suffix := ""
	if cv.Cached {
		suffix = " (cached)"
	}
	switch {
	case cv.Metric != nil:
		fmt.Fprintf(stdout, "%s  cell %d [%d settled]: %s metric=%.6f%s\n", id, cv.Index, settled, cv.State, *cv.Metric, suffix)
	case cv.Error != "":
		fmt.Fprintf(stdout, "%s  cell %d [%d settled]: %s: %s\n", id, cv.Index, settled, cv.State, cv.Error)
	default:
		fmt.Fprintf(stdout, "%s  cell %d [%d settled]: %s%s\n", id, cv.Index, settled, cv.State, suffix)
	}
}

// printAggregate renders the settled sweep and its kind's aggregate.
func printAggregate(stdout io.Writer, id string, v *experiment.SweepView) {
	fmt.Fprintf(stdout, "%s  %s: %d done / %d failed / %d cancelled of %d cells (%d cached)\n",
		id, v.State, v.DoneCells, v.FailedCells, v.CancelledCells, v.TotalCells, v.CachedCells)
	if v.AggregateError != "" {
		fmt.Fprintf(stdout, "%s  aggregate error: %s\n", id, v.AggregateError)
	}
	if v.Aggregate == nil {
		return
	}
	switch {
	case v.Aggregate.RB != nil:
		rb := v.Aggregate.RB
		fmt.Fprintf(stdout, "%s  rb: decay_rate=%.6f avg_gate_infidelity=%.6f over %d lengths\n",
			id, rb.DecayRate, rb.AvgGateInfidelity, len(rb.Points))
	case v.Aggregate.QAOA != nil:
		qa := v.Aggregate.QAOA
		fmt.Fprintf(stdout, "%s  qaoa: best_ratio=%.4f at gamma=%.4f beta=%.4f (%d grid points, %d edges)\n",
			id, qa.BestRatio, qa.BestGamma, qa.BestBeta, len(qa.Surface), qa.Edges)
	case v.Aggregate.SQED != nil:
		sq := v.Aggregate.SQED
		if sq.FitError != "" {
			fmt.Fprintf(stdout, "%s  sqed: %d samples, fit failed: %s\n", id, len(sq.Times), sq.FitError)
		} else {
			fmt.Fprintf(stdout, "%s  sqed: omega=%.4f residual=%.4f over %d samples\n",
				id, sq.Omega, sq.Residual, len(sq.Times))
		}
	case v.Aggregate.QRC != nil:
		qr := v.Aggregate.QRC
		fmt.Fprintf(stdout, "%s  qrc: train_nmse=%.4f eval_nmse=%.4f (%d train / %d eval cells, %d features)\n",
			id, qr.TrainNMSE, qr.EvalNMSE, qr.TrainCells, qr.EvalCells, qr.Features)
	}
}

// printEvent renders one transition for the human-readable stream.
func printEvent(stdout io.Writer, id string, ev serve.Event) {
	switch {
	case ev.State == "done" && ev.Result != nil:
		cached := ""
		if ev.Cached {
			cached = " (cached)"
		}
		fmt.Fprintf(stdout, "%s  done%s: backend=%s seed=%d shots=%d counts=%d\n",
			id, cached, ev.Result.Backend, ev.Result.Seed, ev.Result.Shots, len(ev.Result.Counts))
	case ev.Error != "":
		fmt.Fprintf(stdout, "%s  %s: %s\n", id, ev.State, ev.Error)
	default:
		fmt.Fprintf(stdout, "%s  %s\n", id, ev.State)
	}
}

// jsonReport is the machine-readable projection of a transpile run.
type jsonReport struct {
	Level         string           `json:"level"`
	Passes        []string         `json:"passes"`
	LogicalOps    int              `json:"logical_ops"`
	PhysicalOps   int              `json:"physical_ops"`
	Mapping       []int            `json:"mapping"`
	FinalLayout   []int            `json:"final_layout"`
	SwapsInserted int              `json:"swaps_inserted"`
	OneQuditGates int              `json:"one_qudit_gates"`
	TwoQuditGates int              `json:"two_qudit_gates"`
	DepthBefore   int              `json:"depth_before"`
	DepthAfter    int              `json:"depth_after"`
	DurationSec   float64          `json:"duration_sec"`
	Fidelity      float64          `json:"fidelity_estimate"`
	Noise         *serve.NoiseSpec `json:"noise,omitempty"`
	Ops           []serveOpDump    `json:"ops"`
}

// serveOpDump is one physical op in the JSON dump.
type serveOpDump struct {
	Gate    string `json:"gate"`
	Targets []int  `json:"targets"`
}

func runTranspile(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("quditc transpile", flag.ContinueOnError)
	cavities := fs.Int("cavities", 2, "forecast cavities in the target chain")
	modes := fs.Int("modes", 2, "modes per cavity (0 = full forecast module)")
	level := fs.Int("level", int(transpile.LevelNative), "transpile level: 0 route, 1 +native decomposition, 2 +device noise")
	seed := fs.Int64("seed", 0, "placement seed (0 = derive from the circuit, like an unseeded submission)")
	asJSON := fs.Bool("json", false, "emit a JSON report instead of the listing")
	// Accepted for flag-set uniformity across subcommands; transpile
	// runs locally and never sends it.
	_ = apiKeyFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var in io.Reader = stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	var spec serve.CircuitSpec
	if err := json.NewDecoder(in).Decode(&spec); err != nil {
		return fmt.Errorf("decoding circuit: %w", err)
	}
	logical, err := serve.BuildCircuit(spec)
	if err != nil {
		return err
	}
	lvl, err := transpile.ParseLevel(*level)
	if err != nil {
		return err
	}

	// The processor seed only matters for unseeded placement derivation;
	// 1 matches quditd's default.
	proc, err := core.NewCompactProcessor(*cavities, *modes, 1)
	if err != nil {
		return err
	}
	opts := []core.RunOption{core.WithTranspile(lvl)}
	if *seed != 0 {
		opts = append(opts, core.WithSeed(*seed))
	}
	res, err := proc.Transpile(logical, opts...)
	if err != nil {
		return err
	}

	if *asJSON {
		rep := jsonReport{
			Level:         lvl.String(),
			Passes:        res.Passes,
			LogicalOps:    logical.Len(),
			PhysicalOps:   res.Physical.Len(),
			Mapping:       res.Mapping.LogicalToMode,
			FinalLayout:   res.Report.FinalLayout,
			SwapsInserted: res.Report.SwapsInserted,
			OneQuditGates: res.Report.OneQuditGates,
			TwoQuditGates: res.Report.TwoQuditGates,
			DepthBefore:   res.Report.DepthBefore,
			DepthAfter:    res.Report.DepthAfter,
			DurationSec:   res.Report.DurationSec,
			Fidelity:      res.Report.FidelityEstimate,
		}
		if res.Noise != nil {
			rep.Noise = serve.NoiseSpecFrom(*res.Noise)
		}
		for _, op := range res.Physical.Ops() {
			rep.Ops = append(rep.Ops, serveOpDump{Gate: op.Gate.Name, Targets: op.Targets})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}

	fmt.Fprintf(stdout, "target: %d cavities x %d modes, transpile level %d (%s)\n",
		*cavities, *modes, int(lvl), lvl)
	fmt.Fprintf(stdout, "passes: %v\n", res.Passes)
	fmt.Fprintf(stdout, "ops: %d logical -> %d physical (%d 1q, %d 2q, %d swaps)\n",
		logical.Len(), res.Physical.Len(),
		res.Report.OneQuditGates, res.Report.TwoQuditGates, res.Report.SwapsInserted)
	fmt.Fprintf(stdout, "depth: %d -> %d\n", res.Report.DepthBefore, res.Report.DepthAfter)
	fmt.Fprintf(stdout, "placement: %v  final layout: %v\n",
		res.Mapping.LogicalToMode, res.Report.FinalLayout)
	fmt.Fprintf(stdout, "duration: %.1f us   fidelity budget: %.4f\n",
		res.Report.DurationSec*1e6, res.Report.FidelityEstimate)
	if res.Noise != nil {
		fmt.Fprintf(stdout, "device noise: depol1=%.2e depol2=%.2e damping=%.2e dephasing=%.2e idle=(%.2e,%.2e)\n",
			res.Noise.Depol1, res.Noise.Depol2, res.Noise.Damping, res.Noise.Dephasing,
			res.Noise.IdleDamping, res.Noise.IdleDephasing)
	}
	fmt.Fprintf(stdout, "\n%s", res.Physical.String())
	return nil
}
