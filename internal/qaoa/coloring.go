package qaoa

import (
	"fmt"
	"math"

	"quditkit/internal/circuit"
	"quditkit/internal/gates"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
	"quditkit/internal/state"
)

// Coloring is a max-k-coloring QAOA instance in the native qudit
// encoding: one d-level qudit per vertex, colors = levels. Invalid
// assignments (multiple colors on a node) simply do not exist in the
// state space — the paper's "natural mechanism for enforcing one-hot
// constraints".
type Coloring struct {
	Graph  *Graph
	Colors int
	// Shifts is the per-vertex gauge shift used by NDAR: a sampled digit
	// x_v decodes to color (x_v + Shifts[v]) mod d. Nil means zero shifts.
	Shifts []int
}

// NewColoring validates the instance.
func NewColoring(g *Graph, colors int) (*Coloring, error) {
	if g == nil || colors < 2 {
		return nil, fmt.Errorf("%w: colors=%d", ErrBadProblem, colors)
	}
	return &Coloring{Graph: g, Colors: colors}, nil
}

// Dims returns the register dimensions.
func (c *Coloring) Dims() hilbert.Dims {
	return hilbert.Uniform(c.Graph.N, c.Colors)
}

// shift returns the gauge shift of vertex v.
func (c *Coloring) shift(v int) int {
	if c.Shifts == nil {
		return 0
	}
	return c.Shifts[v]
}

// Decode converts sampled register digits into a color assignment under
// the current gauge.
func (c *Coloring) Decode(digits []int) []int {
	out := make([]int, len(digits))
	for v, x := range digits {
		out[v] = (x + c.shift(v)) % c.Colors
	}
	return out
}

// edgePhaseGate returns the phase-separation gate for edge (u, v) under
// the current gauge: phase e^{-i gamma} exactly on joint levels decoding
// to equal colors.
func (c *Coloring) edgePhaseGate(u, v int, gamma float64) gates.Gate {
	d := c.Colors
	phases := make([][]float64, d)
	for a := 0; a < d; a++ {
		phases[a] = make([]float64, d)
		for b := 0; b < d; b++ {
			if (a+c.shift(u))%d == (b+c.shift(v))%d {
				phases[a][b] = -gamma
			}
		}
	}
	return gates.CPhase(fmt.Sprintf("EqPh(%d,%d)", u, v), phases)
}

// Circuit builds the p-layer QAOA circuit: uniform superposition by DFT,
// then alternating phase-separation (per edge) and rotor-mixer (per
// vertex) layers. len(gammas) == len(betas) == p.
func (c *Coloring) Circuit(gammas, betas []float64) (*circuit.Circuit, error) {
	if len(gammas) != len(betas) || len(gammas) == 0 {
		return nil, fmt.Errorf("%w: %d gammas, %d betas", ErrBadProblem, len(gammas), len(betas))
	}
	d := c.Colors
	qc, err := circuit.New(c.Dims())
	if err != nil {
		return nil, err
	}
	dft := gates.DFT(d)
	for v := 0; v < c.Graph.N; v++ {
		if err := qc.Append(dft, v); err != nil {
			return nil, err
		}
	}
	for layer := range gammas {
		for _, e := range c.Graph.Edges {
			if err := qc.Append(c.edgePhaseGate(e.U, e.V, gammas[layer]), e.U, e.V); err != nil {
				return nil, err
			}
		}
		mixer := gates.RotorMixer(d, betas[layer])
		for v := 0; v < c.Graph.N; v++ {
			if err := qc.Append(mixer, v); err != nil {
				return nil, err
			}
		}
	}
	return qc, nil
}

// ExpectedProperEdges returns the expected number of properly colored
// edges of a register state under the current gauge.
func (c *Coloring) ExpectedProperEdges(v *state.Vec) float64 {
	sp := v.Space()
	probs := v.Probabilities()
	digits := make([]int, c.Graph.N)
	var acc float64
	for idx, p := range probs {
		if p < 1e-15 {
			continue
		}
		sp.DigitsInto(idx, digits)
		acc += p * float64(c.Graph.ProperEdges(c.Decode(digits)))
	}
	return acc
}

// OptimizeP1 grid-searches the single-layer parameters (gamma, beta) over
// their natural periods and refines the best cell by coordinate descent.
// It returns the optimal parameters and the achieved expectation.
func (c *Coloring) OptimizeP1(gridGamma, gridBeta int) (gamma, beta, value float64, err error) {
	if gridGamma < 2 || gridBeta < 2 {
		return 0, 0, 0, fmt.Errorf("%w: grid %dx%d", ErrBadProblem, gridGamma, gridBeta)
	}
	eval := func(g, b float64) (float64, error) {
		qc, err := c.Circuit([]float64{g}, []float64{b})
		if err != nil {
			return 0, err
		}
		plan, err := qc.Compile(noise.Model{})
		if err != nil {
			return 0, err
		}
		ws, err := plan.NewWorkspace()
		if err != nil {
			return 0, err
		}
		return c.ExpectedProperEdges(plan.RunPure(ws)), nil
	}
	bestV := math.Inf(-1)
	for i := 0; i < gridGamma; i++ {
		g := 2 * math.Pi * float64(i) / float64(gridGamma)
		for j := 0; j < gridBeta; j++ {
			b := math.Pi * float64(j) / float64(gridBeta)
			val, err := eval(g, b)
			if err != nil {
				return 0, 0, 0, err
			}
			if val > bestV {
				bestV, gamma, beta = val, g, b
			}
		}
	}
	// Local refinement.
	step := 2 * math.Pi / float64(gridGamma)
	for iter := 0; iter < 12; iter++ {
		improved := false
		for _, cand := range [][2]float64{
			{gamma + step, beta}, {gamma - step, beta},
			{gamma, beta + step/2}, {gamma, beta - step/2},
		} {
			val, err := eval(cand[0], cand[1])
			if err != nil {
				return 0, 0, 0, err
			}
			if val > bestV {
				bestV, gamma, beta = val, cand[0], cand[1]
				improved = true
			}
		}
		if !improved {
			step /= 2
			if step < 1e-3 {
				break
			}
		}
	}
	return gamma, beta, bestV, nil
}
