// Sweep walkthrough: run a QAOA (gamma, beta) grid as one experiment
// sweep — the paper's application suite served as a first-class
// workload — and watch its progress stream over the same HTTP surface
// cmd/quditd exposes.
//
// The program stands up an in-process sweep service (serve.Service +
// experiment.Manager behind experiment.NewHandler, exactly the
// standalone quditd stack), submits a 4x4 gamma-beta grid for a
// 4-node 3-coloring instance, follows the Server-Sent-Events stream
// as cells settle, and prints the aggregated ratio surface with the
// best angles. A resubmission then shows every cell settling from the
// content-addressed result cache.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"quditkit/internal/core"
	"quditkit/internal/experiment"
	"quditkit/internal/serve"
	"quditkit/internal/sse"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The standalone quditd stack in miniature: processor, job
	// service, sweep manager, HTTP handler.
	proc, err := core.NewCompactProcessor(2, 2, 1)
	if err != nil {
		return err
	}
	svc, err := serve.New(proc, serve.Config{})
	if err != nil {
		return err
	}
	defer svc.Close()
	mgr, err := experiment.NewManager(experiment.ServeRunner{Service: svc}, experiment.Config{})
	if err != nil {
		return err
	}
	defer mgr.Close()
	ts := httptest.NewServer(experiment.NewHandler(mgr, serve.NewHandler(svc)))
	defer ts.Close()

	// One request, sixteen jobs: a 4x4 (gamma, beta) grid over a
	// random-regularish 4-node graph, 3 colors per node, one QAOA
	// layer. Each grid cell expands server-side into its own
	// content-addressed job with a seed derived from the sweep seed
	// and cell index.
	req := `{
	  "kind": "qaoa",
	  "shots": 256,
	  "seed": 11,
	  "qaoa": {
	    "nodes": 4, "colors": 3, "layers": 1,
	    "gammas": {"from": 0.2, "to": 1.4, "n": 4},
	    "betas":  {"from": 0.2, "to": 1.1, "n": 4}
	  }
	}`

	id, err := submit(ts.URL, req)
	if err != nil {
		return err
	}
	fmt.Printf("sweep %s submitted; streaming settlements:\n", id)

	// Follow the SSE stream: one "cell" event per settlement, then the
	// terminal "sweep" event carrying the full view and aggregate.
	// (quditc sweep -watch is the production consumer of this stream.)
	final, err := stream(ts.URL, id)
	if err != nil {
		return err
	}
	printAggregate(final)

	// Resubmission: every cell is content-addressed, so the identical
	// grid settles from the result cache without re-simulating — and
	// the aggregate is byte-identical by construction.
	id2, err := submit(ts.URL, req)
	if err != nil {
		return err
	}
	again, err := stream(ts.URL, id2)
	if err != nil {
		return err
	}
	a, _ := json.Marshal(final.Aggregate)
	b, _ := json.Marshal(again.Aggregate)
	fmt.Printf("resubmitted as %s: %d/%d cells cached, aggregates identical: %v\n",
		again.ID, again.CachedCells, again.TotalCells, string(a) == string(b))
	return nil
}

// submit posts one SweepRequest and returns the accepted sweep ID.
func submit(base, body string) (string, error) {
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("submit returned %d", resp.StatusCode)
	}
	var view experiment.SweepView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return "", err
	}
	return view.ID, nil
}

// stream follows a sweep's SSE feed to the terminal event and returns
// the settled view.
func stream(base, id string) (*experiment.SweepView, error) {
	resp, err := http.Get(base + "/v1/sweeps/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events returned %d", resp.StatusCode)
	}
	var final *experiment.SweepView
	settled := sse.Read(resp.Body, func(f sse.Frame) bool {
		var ev experiment.SweepEvent
		if err := json.Unmarshal(f.Data, &ev); err != nil {
			return false
		}
		switch {
		case ev.Type == experiment.EventCell && ev.Cell != nil:
			if ev.Cell.Metric != nil {
				fmt.Printf("  cell %2d (gamma=%.2f beta=%.2f): %s ratio=%.3f\n",
					ev.Cell.Index, ev.Cell.Params["gamma"], ev.Cell.Params["beta"],
					ev.Cell.State, *ev.Cell.Metric)
			} else {
				fmt.Printf("  cell %2d: %s %s\n", ev.Cell.Index, ev.Cell.State, ev.Cell.Error)
			}
		case ev.Type == experiment.EventSweep && ev.State != experiment.SweepRunning:
			final = ev.Sweep
			return true
		}
		return false
	})
	if !settled {
		return nil, fmt.Errorf("stream ended before sweep %s settled", id)
	}
	if final == nil {
		return nil, fmt.Errorf("terminal event without view")
	}
	return final, nil
}

// printAggregate renders the QAOA ratio surface and best angles.
func printAggregate(v *experiment.SweepView) {
	fmt.Printf("sweep %s %s: %d done / %d failed of %d cells\n",
		v.ID, v.State, v.DoneCells, v.FailedCells, v.TotalCells)
	if v.Aggregate == nil || v.Aggregate.QAOA == nil {
		fmt.Printf("no aggregate: %s\n", v.AggregateError)
		return
	}
	qa := v.Aggregate.QAOA
	fmt.Printf("ratio surface over %d properly-colorable edges:\n", qa.Edges)
	for _, p := range qa.Surface {
		fmt.Printf("  gamma=%.2f beta=%.2f ratio=%.3f\n", p.Gamma, p.Beta, p.Ratio)
	}
	fmt.Printf("best angles: gamma=%.2f beta=%.2f (ratio %.3f)\n",
		qa.BestGamma, qa.BestBeta, qa.BestRatio)
}
