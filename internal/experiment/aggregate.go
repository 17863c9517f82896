package experiment

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"quditkit/internal/fit"
	"quditkit/internal/qaoa"
	"quditkit/internal/rb"
	"quditkit/internal/serve"
)

// aggregator folds one sweep's cell results into the kind's aggregate.
// metric extracts the cell's scalar observable from its result view as
// the cell settles; finalize runs once after every cell settled and may
// return a partial aggregate alongside an error (too few done cells to
// fit, degenerate regression).
type aggregator interface {
	metric(c cell, res *serve.ResultView) (float64, error)
	finalize(cells []*cellRecord) (*Aggregate, error)
}

// parseKey decodes a histogram key ("0.2.1") into per-wire digits.
func parseKey(key string) ([]int, error) {
	parts := strings.Split(key, ".")
	digits := make([]int, len(parts))
	for i, p := range parts {
		d, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("experiment: bad histogram key %q: %w", key, err)
		}
		digits[i] = d
	}
	return digits, nil
}

// checkShots rejects results without a histogram, which no aggregate
// can use.
func checkShots(res *serve.ResultView) error {
	if res == nil || res.Shots < 1 {
		return fmt.Errorf("experiment: result carries no shot histogram")
	}
	return nil
}

// rbAggregator folds survival probabilities into the decay fit.
type rbAggregator struct {
	dim int
}

// metric is the |0> survival probability.
func (a *rbAggregator) metric(_ cell, res *serve.ResultView) (float64, error) {
	if err := checkShots(res); err != nil {
		return 0, err
	}
	return float64(res.Counts["0"]) / float64(res.Shots), nil
}

func (a *rbAggregator) finalize(cells []*cellRecord) (*Aggregate, error) {
	sums := make(map[int]float64)
	counts := make(map[int]int)
	for _, rec := range cells {
		if rec.state != cellDone || !rec.hasMetric {
			continue
		}
		m := int(rec.cell.params["length"])
		sums[m] += rec.metric
		counts[m]++
	}
	lengths := make([]int, 0, len(sums))
	for m := range sums {
		lengths = append(lengths, m)
	}
	sort.Ints(lengths)
	agg := &RBAggregate{}
	points := make([]rb.Point, len(lengths))
	for i, m := range lengths {
		points[i] = rb.Point{Length: m, Survival: sums[m] / float64(counts[m])}
		agg.Points = append(agg.Points, RBPoint(points[i]))
	}
	out := &Aggregate{RB: agg}
	if len(agg.Points) < 2 {
		return out, fmt.Errorf("experiment: rb fit needs >= 2 lengths with done cells, got %d", len(agg.Points))
	}
	p, err := rb.FitDecay(points, a.dim)
	if err != nil {
		return out, err
	}
	agg.DecayRate = p
	agg.AvgGateInfidelity = (1 - p) * float64(a.dim-1) / float64(a.dim)
	return out, nil
}

// qaoaAggregator scores outcomes against the instance graph.
type qaoaAggregator struct {
	graph *qaoa.Graph
}

// metric is the approximation ratio: the expected properly-colored
// edge fraction of the measured assignments.
func (a *qaoaAggregator) metric(_ cell, res *serve.ResultView) (float64, error) {
	if err := checkShots(res); err != nil {
		return 0, err
	}
	if len(a.graph.Edges) == 0 {
		return 0, fmt.Errorf("experiment: qaoa instance has no edges")
	}
	var proper float64
	for key, n := range res.Counts {
		colors, err := parseKey(key)
		if err != nil {
			return 0, err
		}
		if len(colors) != a.graph.N {
			return 0, fmt.Errorf("experiment: outcome %q has %d wires, want %d", key, len(colors), a.graph.N)
		}
		proper += float64(n) * float64(a.graph.ProperEdges(colors))
	}
	return proper / (float64(res.Shots) * float64(len(a.graph.Edges))), nil
}

func (a *qaoaAggregator) finalize(cells []*cellRecord) (*Aggregate, error) {
	agg := &QAOAAggregate{Edges: len(a.graph.Edges), BestRatio: math.Inf(-1)}
	for _, rec := range cells {
		if rec.state != cellDone || !rec.hasMetric {
			continue
		}
		pt := QAOAPoint{
			Gamma: rec.cell.params["gamma"],
			Beta:  rec.cell.params["beta"],
			Ratio: rec.metric,
		}
		agg.Surface = append(agg.Surface, pt)
		if pt.Ratio > agg.BestRatio {
			agg.BestRatio = pt.Ratio
			agg.BestGamma = pt.Gamma
			agg.BestBeta = pt.Beta
		}
	}
	out := &Aggregate{QAOA: agg}
	if len(agg.Surface) == 0 {
		agg.BestRatio = 0
		return out, fmt.Errorf("experiment: qaoa surface has no done cells")
	}
	return out, nil
}

// sqedAggregator folds <Lz_0> samples into the quench series.
type sqedAggregator struct {
	ell int
}

// metric is <Lz_0> = sum over outcomes of (digit_0 - l) * probability.
func (a *sqedAggregator) metric(_ cell, res *serve.ResultView) (float64, error) {
	if err := checkShots(res); err != nil {
		return 0, err
	}
	var lz float64
	for key, n := range res.Counts {
		digits, err := parseKey(key)
		if err != nil {
			return 0, err
		}
		lz += float64(n) * float64(digits[0]-a.ell)
	}
	return lz / float64(res.Shots), nil
}

func (a *sqedAggregator) finalize(cells []*cellRecord) (*Aggregate, error) {
	agg := &SQEDAggregate{}
	// Cells expand in step order, so index order is time order; failed
	// cells leave gaps rather than holes of zeros.
	for _, rec := range cells {
		if rec.state != cellDone || !rec.hasMetric {
			continue
		}
		agg.Times = append(agg.Times, rec.cell.params["time"])
		agg.Signal = append(agg.Signal, rec.metric)
	}
	out := &Aggregate{SQED: agg}
	if len(agg.Times) == 0 {
		return out, fmt.Errorf("experiment: sqed series has no done cells")
	}
	dc, err := fit.FitDampedCosine(agg.Times, agg.Signal)
	if err != nil {
		// The series is still the deliverable; record why the fit is
		// missing instead of failing the sweep.
		agg.FitError = err.Error()
		return out, nil
	}
	agg.Omega = dc.Omega
	agg.Residual = dc.Residual
	return out, nil
}

// qrcAggregator trains the ridge readout over the cells' histograms.
type qrcAggregator struct {
	targets  []float64
	inputs   []float64
	train    int
	histSize int
	dim      int
	lambda   float64
}

// metric is the zero-state probability — a cheap per-cell progress
// signal; the real aggregate needs the full histograms at finalize.
func (a *qrcAggregator) metric(c cell, res *serve.ResultView) (float64, error) {
	if err := checkShots(res); err != nil {
		return 0, err
	}
	zero := make([]string, len(c.job.Circuit.Dims))
	for i := range zero {
		zero[i] = "0"
	}
	return float64(res.Counts[strings.Join(zero, ".")]) / float64(res.Shots), nil
}

// features builds one readout row: the normalized outcome histogram,
// the raw input, and a bias term.
func (a *qrcAggregator) features(rec *cellRecord) ([]float64, error) {
	row := make([]float64, a.histSize+2)
	shots := float64(rec.res.Shots)
	for key, n := range rec.res.Counts {
		digits, err := parseKey(key)
		if err != nil {
			return nil, err
		}
		idx := 0
		for _, d := range digits {
			if d < 0 || d >= a.dim {
				return nil, fmt.Errorf("experiment: outcome %q outside dimension %d", key, a.dim)
			}
			idx = idx*a.dim + d
		}
		row[idx] = float64(n) / shots
	}
	row[a.histSize] = a.inputs[rec.cell.index]
	row[a.histSize+1] = 1
	return row, nil
}

func (a *qrcAggregator) finalize(cells []*cellRecord) (*Aggregate, error) {
	var trainX, evalX [][]float64
	var trainY, evalY []float64
	for _, rec := range cells {
		if rec.state != cellDone || rec.res == nil {
			continue
		}
		row, err := a.features(rec)
		if err != nil {
			return nil, err
		}
		if rec.cell.index < a.train {
			trainX = append(trainX, row)
			trainY = append(trainY, a.targets[rec.cell.index])
		} else {
			evalX = append(evalX, row)
			evalY = append(evalY, a.targets[rec.cell.index])
		}
	}
	agg := &QRCAggregate{TrainCells: len(trainX), EvalCells: len(evalX), Features: a.histSize + 2}
	out := &Aggregate{QRC: agg}
	if len(trainX) < 2 || len(evalX) < 2 {
		return out, fmt.Errorf("experiment: qrc needs >= 2 done cells per split, got %d train / %d eval", len(trainX), len(evalX))
	}
	w, err := fit.Ridge(trainX, trainY, a.lambda)
	if err != nil {
		return out, fmt.Errorf("experiment: qrc readout: %w", err)
	}
	trainNMSE, err := fit.NMSE(fit.Predict(trainX, w), trainY)
	if err != nil {
		return out, fmt.Errorf("experiment: qrc train score: %w", err)
	}
	evalNMSE, err := fit.NMSE(fit.Predict(evalX, w), evalY)
	if err != nil {
		return out, fmt.Errorf("experiment: qrc eval score: %w", err)
	}
	agg.TrainNMSE = trainNMSE
	agg.EvalNMSE = evalNMSE
	return out, nil
}
