package experiment

import (
	"fmt"
	"math"
	"testing"

	"quditkit/internal/circuit"
	"quditkit/internal/noise"
	"quditkit/internal/qaoa"
	"quditkit/internal/serve"
	"quditkit/internal/sqed"
)

// TestServedCircuitsMatchLibrary ties the sqed and qaoa sweep cells to
// the library builders that regenerate the E-tables: every cell's
// served circuit (serve.BuildCircuit of the expanded ops) and the
// library's circuit for the same parameters must leave bit-identical
// states through Plan.RunPure. Drift in either builder fails here.
func TestServedCircuitsMatchLibrary(t *testing.T) {
	t.Parallel()
	chains := []SQEDSpec{
		{Sites: 2, Ell: 1, G2: 1.2, X: 0.3, Dt: 0.15, Steps: 8},
		{Sites: 3, Ell: 1, G2: 0.8, X: 0.5, Dt: 0.1, Steps: 8},
		{Sites: 4, Ell: 1, G2: 1.0, X: 0.4, Dt: 0.2, Steps: 8},
		{Sites: 2, Ell: 2, G2: 1.5, X: 0.7, Dt: 0.05, Steps: 8},
	}
	for _, spec := range chains {
		spec := spec
		exp, err := expandSQED(SweepRequest{Kind: KindSQED, SQED: &spec}, 1024)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sqed.NewChain(spec.Sites, spec.Ell, spec.G2, spec.X, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range exp.cells {
			steps := int(c.params["steps"])
			lib, err := r.TrotterCircuit(spec.Dt, steps)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("sqed sites=%d ell=%d steps=%d", spec.Sites, spec.Ell, steps)
			assertSameState(t, name, c.job.Circuit, lib)
		}
	}

	axis := Axis{Values: []float64{0.4, 1.3}}
	instances := []QAOASpec{
		{Nodes: 4, Chords: 1, Colors: 3, Layers: 1},
		{Nodes: 5, Chords: 2, Colors: 3, Layers: 2},
		{Nodes: 5, Chords: 1, Colors: 4, Layers: 1},
		{Nodes: 6, Chords: 3, Colors: 3, Layers: 1},
		{Nodes: 6, Chords: 0, Colors: 3, Layers: 2},
	}
	for i, spec := range instances {
		spec.Gammas, spec.Betas = axis, axis
		exp, err := expandQAOA(SweepRequest{Kind: KindQAOA, Seed: int64(i + 3), QAOA: &spec}, 1024)
		if err != nil {
			t.Fatal(err)
		}
		col, err := qaoa.NewColoring(exp.agg.(*qaoaAggregator).graph, spec.Colors)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range exp.cells {
			gammas := make([]float64, spec.Layers)
			betas := make([]float64, spec.Layers)
			for l := range gammas {
				gammas[l], betas[l] = c.params["gamma"], c.params["beta"]
			}
			lib, err := col.Circuit(gammas, betas)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("qaoa nodes=%d colors=%d layers=%d gamma=%v beta=%v",
				spec.Nodes, spec.Colors, spec.Layers, gammas[0], betas[0])
			assertSameState(t, name, c.job.Circuit, lib)
		}
	}
}

// assertSameState runs the served circuit spec and the library circuit
// through noiseless plans and demands bit-identical amplitudes.
func assertSameState(t *testing.T, name string, served serve.CircuitSpec, lib *circuit.Circuit) {
	t.Helper()
	sc, err := serve.BuildCircuit(served)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var amps [2][]complex128
	for i, c := range []*circuit.Circuit{sc, lib} {
		plan, err := c.Compile(noise.Model{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ws, err := plan.NewWorkspace()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		amps[i] = plan.RunPure(ws).Amplitudes()
	}
	if len(amps[0]) != len(amps[1]) {
		t.Fatalf("%s: served register has %d amplitudes, library %d", name, len(amps[0]), len(amps[1]))
	}
	for k, a := range amps[0] {
		b := amps[1][k]
		if math.Float64bits(real(a)) != math.Float64bits(real(b)) || math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
			t.Fatalf("%s: amplitude %d: served %v, library %v", name, k, a, b)
		}
	}
}
