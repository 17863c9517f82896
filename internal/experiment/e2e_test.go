package experiment_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"quditkit/internal/cluster"
	"quditkit/internal/core"
	"quditkit/internal/experiment"
	"quditkit/internal/golden"
	"quditkit/internal/serve"
)

// newService builds a standalone serve.Service over a 2x2 forecast
// processor.
func newService(t *testing.T) *serve.Service {
	t.Helper()
	proc, err := core.NewCompactProcessor(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := serve.New(proc, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// newFleetRunner assembles a 1-coordinator/2-worker in-process fleet
// and returns the coordinator as the sweep Runner.
func newFleetRunner(t *testing.T) *cluster.Coordinator {
	t.Helper()
	proc, err := core.NewCompactProcessor(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Proc:            proc,
		MonitorInterval: -1, // no heartbeats in-process; never reap
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	for _, id := range []string{"w1", "w2"} {
		svc := newService(t)
		ts := httptest.NewServer(serve.NewHandler(svc))
		t.Cleanup(ts.Close)
		coord.Register(id, ts.URL)
	}
	return coord
}

func runSweep(t *testing.T, m *experiment.Manager, req experiment.SweepRequest) experiment.SweepView {
	t.Helper()
	id, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	view, err := m.Await(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// checkAggregateGolden pins one sweep kind's aggregate, as indented
// JSON, to testdata/sweeps/<kind>.json (see internal/golden).
func checkAggregateGolden(t *testing.T, kind string, agg *experiment.Aggregate) {
	t.Helper()
	b, err := json.MarshalIndent(agg, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "sweeps", kind+".json"), append(b, '\n'))
}

func noisyRB() experiment.SweepRequest {
	return experiment.SweepRequest{
		Kind:  experiment.KindRB,
		Shots: 128,
		Seed:  11,
		Noise: &serve.NoiseSpec{Depol1: 0.05},
		RB:    &experiment.RBSpec{Dim: 3, Lengths: []int{1, 2, 4, 8}, Sequences: 2},
	}
}

func smallQAOA() experiment.SweepRequest {
	return experiment.SweepRequest{
		Kind:  experiment.KindQAOA,
		Shots: 128,
		Seed:  11,
		QAOA: &experiment.QAOASpec{
			Nodes: 3, Colors: 3,
			Gammas: experiment.Axis{From: 0.2, To: 1.0, N: 2},
			Betas:  experiment.Axis{From: 0.2, To: 0.8, N: 2},
		},
	}
}

// TestStandaloneRBSweep runs a noisy motion-reversal sweep through a
// real serve.Service: the decay fit lands in (0,1), and an identical
// resubmission settles every cell from the result cache.
func TestStandaloneRBSweep(t *testing.T) {
	svc := newService(t)
	m, err := experiment.NewManager(experiment.ServeRunner{Service: svc}, experiment.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	view := runSweep(t, m, noisyRB())
	if view.State != experiment.SweepCompleted || view.FailedCells != 0 {
		t.Fatalf("sweep: %+v", view)
	}
	if view.AggregateError != "" {
		t.Fatalf("aggregate error %q", view.AggregateError)
	}
	rb := view.Aggregate.RB
	if rb == nil || len(rb.Points) != 4 {
		t.Fatalf("rb aggregate %+v", view.Aggregate)
	}
	if rb.DecayRate <= 0 || rb.DecayRate >= 1 {
		t.Fatalf("decay rate %v outside (0,1) under depolarizing noise", rb.DecayRate)
	}
	// Longer sequences must not survive better than the shortest.
	if rb.Points[len(rb.Points)-1].Survival >= rb.Points[0].Survival {
		t.Fatalf("survival curve not decaying: %+v", rb.Points)
	}
	checkAggregateGolden(t, experiment.KindRB, view.Aggregate)

	// Resubmission dedupes through the content-addressed cache.
	statsBefore := svc.Stats()
	again := runSweep(t, m, noisyRB())
	if again.CachedCells != again.TotalCells {
		t.Fatalf("resubmission cached %d of %d cells", again.CachedCells, again.TotalCells)
	}
	if hits := svc.Stats().CacheHits - statsBefore.CacheHits; hits < uint64(again.TotalCells) {
		t.Fatalf("service recorded %d cache hits for %d cells", hits, again.TotalCells)
	}
	a, _ := json.Marshal(view.Aggregate)
	b, _ := json.Marshal(again.Aggregate)
	if string(a) != string(b) {
		t.Fatalf("cached resubmission changed the aggregate:\n%s\n%s", a, b)
	}
}

// TestNoiselessRBSurvivalIsUnity pins the mirror property end to end:
// without noise every random sequence composed with its inverses acts
// as the identity, so every cell's survival metric is exactly 1.
func TestNoiselessRBSurvivalIsUnity(t *testing.T) {
	svc := newService(t)
	m, err := experiment.NewManager(experiment.ServeRunner{Service: svc}, experiment.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	req := noisyRB()
	req.Noise = nil
	req.RB.Lengths = []int{1, 4}
	req.RB.Sequences = 2
	view := runSweep(t, m, req)
	if view.State != experiment.SweepCompleted || view.DoneCells != view.TotalCells {
		t.Fatalf("sweep: %+v", view)
	}
	for _, cv := range view.Cells {
		if cv.Metric == nil || *cv.Metric != 1 {
			t.Fatalf("cell %d survival %v, want exactly 1 (inverse construction broken?)", cv.Index, cv.Metric)
		}
	}
}

// TestFleetMatchesStandaloneAggregates is the sweep determinism
// contract: a 1-coordinator/2-worker fleet and a standalone node
// produce byte-identical aggregates for the same RB and QAOA requests,
// because every cell seed derives from the sweep seed alone.
func TestFleetMatchesStandaloneAggregates(t *testing.T) {
	svc := newService(t)
	sm, err := experiment.NewManager(experiment.ServeRunner{Service: svc}, experiment.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sm.Close)

	coord := newFleetRunner(t)
	fm, err := experiment.NewManager(coord, experiment.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fm.Close)

	for _, req := range []experiment.SweepRequest{noisyRB(), smallQAOA()} {
		sview := runSweep(t, sm, req)
		fview := runSweep(t, fm, req)
		for _, v := range []experiment.SweepView{sview, fview} {
			if v.State != experiment.SweepCompleted || v.FailedCells != 0 || v.AggregateError != "" {
				t.Fatalf("%s sweep: %+v", req.Kind, v)
			}
		}
		sagg, _ := json.Marshal(sview.Aggregate)
		fagg, _ := json.Marshal(fview.Aggregate)
		if string(sagg) != string(fagg) {
			t.Fatalf("%s aggregates diverge across topologies:\nstandalone: %s\nfleet:      %s",
				req.Kind, sagg, fagg)
		}
		if req.Kind == experiment.KindQAOA {
			checkAggregateGolden(t, req.Kind, sview.Aggregate) // rb is pinned by TestStandaloneRBSweep
		}
		// Cell metrics match one-to-one as well, not just the fold.
		for i := range sview.Cells {
			sm, fm := sview.Cells[i].Metric, fview.Cells[i].Metric
			if sm == nil || fm == nil || *sm != *fm {
				t.Fatalf("%s cell %d metric %v vs %v", req.Kind, i, sm, fm)
			}
		}
	}
	if workers := len(coord.Stats().Workers); workers != 2 {
		t.Fatalf("fleet lost workers mid-test: %d", workers)
	}
}

// TestSQEDAndQRCSweeps exercises the remaining kinds end to end on a
// standalone service: the quench fit recovers a positive frequency and
// the reservoir readout beats predicting the mean on the train split.
func TestSQEDAndQRCSweeps(t *testing.T) {
	svc := newService(t)
	m, err := experiment.NewManager(experiment.ServeRunner{Service: svc}, experiment.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	sqed := experiment.SweepRequest{
		Kind:  experiment.KindSQED,
		Shots: 2048,
		Seed:  11,
		SQED:  &experiment.SQEDSpec{Sites: 2, Ell: 1, G2: 1.2, X: 0.9, Dt: 0.2, Steps: 12},
	}
	view := runSweep(t, m, sqed)
	if view.State != experiment.SweepCompleted || view.DoneCells != 12 {
		t.Fatalf("sqed sweep: %+v", view)
	}
	agg := view.Aggregate.SQED
	if agg == nil || len(agg.Times) != 12 {
		t.Fatalf("sqed aggregate: %+v", view.Aggregate)
	}
	if agg.FitError == "" && agg.Omega <= 0 {
		t.Fatalf("sqed fit returned omega %v", agg.Omega)
	}
	checkAggregateGolden(t, experiment.KindSQED, view.Aggregate)

	qrc := experiment.SweepRequest{
		Kind:  experiment.KindQRC,
		Shots: 512,
		Seed:  11,
		QRC:   &experiment.QRCSpec{Length: 40, Train: 18},
	}
	qview := runSweep(t, m, qrc)
	if qview.State != experiment.SweepCompleted || qview.FailedCells != 0 {
		t.Fatalf("qrc sweep: %+v", qview)
	}
	if qview.AggregateError != "" {
		t.Fatalf("qrc aggregate error %q", qview.AggregateError)
	}
	qagg := qview.Aggregate.QRC
	if qagg == nil || qagg.TrainCells != 18 || qagg.EvalCells != 40-4-18 {
		t.Fatalf("qrc aggregate: %+v", qview.Aggregate)
	}
	// NMSE < 1 means the readout beats the constant mean predictor.
	if qagg.TrainNMSE <= 0 || qagg.TrainNMSE >= 1 {
		t.Fatalf("qrc train NMSE %v", qagg.TrainNMSE)
	}
	checkAggregateGolden(t, experiment.KindQRC, qview.Aggregate)
}
