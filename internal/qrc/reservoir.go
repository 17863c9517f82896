// Package qrc implements the quantum-machine-learning application of the
// paper (§II.C): quantum reservoir computing on coupled dissipative
// cavity modes (after Dudas et al., npj QI 9, 64 (2023)), with Fock-basis
// "neuron" feature maps, ridge readout, time-series and waveform tasks, a
// classical echo-state-network baseline, finite-shot feature estimation
// (the paper's "sampling overhead" challenge), and reservoir-processing
// quantum state tomography (after Krisnanda et al., arXiv:2412.11015).
package qrc

import (
	"errors"
	"fmt"
	"math"

	"quditkit/internal/gates"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
	"quditkit/internal/qmath"
)

// ErrBadReservoir indicates invalid reservoir parameters.
var ErrBadReservoir = errors.New("qrc: invalid reservoir")

// ReservoirParams describes the coupled-oscillator analog reservoir
//
//	H = sum_i omega_i n_i + g (a_1† a_2 + h.c.) + eps u(t) (a_1 + a_1†)
//
// with per-mode photon loss kappa_i. All rates are dimensionless (units
// of the inverse input-sample duration).
type ReservoirParams struct {
	// Modes is the number of oscillators (2 in the reference study).
	Modes int
	// Dim is the Fock truncation per mode: Dim levels give Dim^Modes
	// "neurons" (81 at Dim=9, Modes=2).
	Dim int
	// Omega lists the mode detunings.
	Omega []float64
	// G is the exchange coupling between consecutive modes.
	G float64
	// Kappa lists per-mode dissipation rates.
	Kappa []float64
	// InputGain is the drive amplitude per unit input, applied to mode 0.
	InputGain float64
	// StepTime is the evolution time per input sample.
	StepTime float64
	// Substeps is the number of RK4 substeps per input sample. Zero
	// selects 10.
	Substeps int
	// VirtualNodes is the time-multiplexing factor: the number of feature
	// snapshots recorded per input sample (the standard trick that
	// multiplies the effective neuron count). Zero selects 1.
	VirtualNodes int
	// QuadratureTaps adds <x>, <p>, <n> of every mode to each feature
	// snapshot, capturing coherence information the populations miss.
	QuadratureTaps bool
	// IncludeInput appends the (classically known) raw input value to the
	// per-sample features, standard reservoir-computing practice.
	IncludeInput bool
}

// DefaultParams returns the two-mode reservoir of the reference study
// scaled to a given truncation.
func DefaultParams(dim int) ReservoirParams {
	return ReservoirParams{
		Modes:          2,
		Dim:            dim,
		Omega:          []float64{0.5, 1.3},
		G:              1.0,
		Kappa:          []float64{0.3, 0.2},
		InputGain:      1.5,
		StepTime:       2.0,
		Substeps:       16,
		VirtualNodes:   4,
		QuadratureTaps: true,
		IncludeInput:   true,
	}
}

// Validate checks the parameters.
func (p ReservoirParams) Validate() error {
	if p.Modes < 1 {
		return fmt.Errorf("%w: modes=%d", ErrBadReservoir, p.Modes)
	}
	if p.Dim < 2 {
		return fmt.Errorf("%w: dim=%d", ErrBadReservoir, p.Dim)
	}
	if len(p.Omega) != p.Modes || len(p.Kappa) != p.Modes {
		return fmt.Errorf("%w: omega/kappa length mismatch", ErrBadReservoir)
	}
	if p.StepTime <= 0 {
		return fmt.Errorf("%w: step time %v", ErrBadReservoir, p.StepTime)
	}
	return nil
}

// Neurons returns the feature dimension Dim^Modes.
func (p ReservoirParams) Neurons() int {
	n := 1
	for i := 0; i < p.Modes; i++ {
		n *= p.Dim
	}
	return n
}

// Reservoir is a stateful quantum reservoir.
type Reservoir struct {
	params   ReservoirParams
	space    *hilbert.Space
	h0       *qmath.Matrix // static Hamiltonian
	drive    *qmath.Matrix // input coupling operator (a_0 + a_0†)
	collapse []*qmath.Matrix
	rho      *qmath.Matrix
	substeps int
	virtual  int
	// quadrature observables per mode (embedded), built on demand
	xOps, pOps, nOps []*qmath.Matrix
}

// NewReservoir builds the reservoir in its vacuum state.
func NewReservoir(p ReservoirParams) (*Reservoir, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sp, err := hilbert.NewSpace(hilbert.Uniform(p.Modes, p.Dim))
	if err != nil {
		return nil, err
	}
	dim := sp.Total()
	r := &Reservoir{params: p, space: sp, substeps: p.Substeps}
	if r.substeps == 0 {
		r.substeps = 10
	}

	// Static Hamiltonian: detunings + nearest-neighbor exchange.
	h := qmath.NewMatrix(dim, dim)
	for m := 0; m < p.Modes; m++ {
		n := embedOp(sp, gates.Number(p.Dim), m)
		h.AddScaledInPlace(complex(p.Omega[m], 0), n)
	}
	for m := 0; m+1 < p.Modes; m++ {
		a1 := embedOp(sp, gates.Lower(p.Dim), m)
		a2 := embedOp(sp, gates.Lower(p.Dim), m+1)
		ex := a1.Dagger().Mul(a2)
		ex.AddInPlace(a2.Dagger().Mul(a1))
		h.AddScaledInPlace(complex(p.G, 0), ex)
	}
	r.h0 = h

	a0 := embedOp(sp, gates.Lower(p.Dim), 0)
	r.drive = a0.Add(a0.Dagger()).Scale(complex(p.InputGain, 0))

	for m := 0; m < p.Modes; m++ {
		if p.Kappa[m] <= 0 {
			continue
		}
		c := embedOp(sp, gates.Lower(p.Dim), m).Scale(complex(math.Sqrt(p.Kappa[m]), 0))
		r.collapse = append(r.collapse, c)
	}
	r.virtual = p.VirtualNodes
	if r.virtual < 1 {
		r.virtual = 1
	}
	if p.QuadratureTaps {
		for m := 0; m < p.Modes; m++ {
			r.xOps = append(r.xOps, embedOp(sp, gates.Position(p.Dim), m))
			r.pOps = append(r.pOps, embedOp(sp, gates.Momentum(p.Dim), m))
			r.nOps = append(r.nOps, embedOp(sp, gates.Number(p.Dim), m))
		}
	}
	r.Reset()
	return r, nil
}

// embedOp lifts a single-mode operator to the full register.
func embedOp(sp *hilbert.Space, op *qmath.Matrix, mode int) *qmath.Matrix {
	dim := sp.Total()
	out := qmath.NewMatrix(dim, dim)
	offsets := sp.TargetOffsets([]int{mode})
	sp.SubspaceIter([]int{mode}, func(base int) {
		for i := 0; i < op.Rows; i++ {
			for j := 0; j < op.Cols; j++ {
				v := op.At(i, j)
				if v != 0 {
					out.Set(base+offsets[i], base+offsets[j], v)
				}
			}
		}
	})
	return out
}

// Params returns the reservoir parameters.
func (r *Reservoir) Params() ReservoirParams { return r.params }

// Reset returns the reservoir to the vacuum state.
func (r *Reservoir) Reset() {
	dim := r.space.Total()
	r.rho = qmath.NewMatrix(dim, dim)
	r.rho.Set(0, 0, 1)
}

// Feed injects one input sample: the reservoir evolves for StepTime under
// the driven dissipative dynamics with drive amplitude proportional to u.
func (r *Reservoir) Feed(u float64) error {
	_, err := r.feedMultiplexed(u, 1)
	return err
}

// feedMultiplexed evolves one input sample in v equal chunks, returning
// the feature snapshot after each chunk (the "virtual nodes"). The RK4
// substep count per chunk is raised when the Hamiltonian norm demands it
// (dt ||H|| <= 0.5), so larger truncations stay numerically stable.
func (r *Reservoir) feedMultiplexed(u float64, v int) ([][]float64, error) {
	h := r.h0.Clone()
	h.AddScaledInPlace(complex(u, 0), r.drive)
	l, err := noise.NewSparseLindblad(h, r.collapse)
	if err != nil {
		return nil, err
	}
	chunk := r.params.StepTime / float64(v)
	sub := r.substeps / v
	if sub < 2 {
		sub = 2
	}
	// RK4 on the imaginary axis is stable to |lambda| dt ~ 2.8; dt ||H||
	// <= 1 keeps a comfortable margin while bounding cost.
	if need := int(math.Ceil(chunk * qmath.OnesNorm(h))); need > sub {
		sub = need
	}
	snaps := make([][]float64, 0, v)
	for k := 0; k < v; k++ {
		out, err := l.Evolve(chunk, sub, r.rho)
		if err != nil {
			return nil, err
		}
		r.rho = out
		snaps = append(snaps, r.snapshot())
	}
	// Trace drift is the cheap, reliable instability detector.
	if tr := real(r.rho.Trace()); math.IsNaN(tr) || math.Abs(tr-1) > 0.01 {
		return nil, fmt.Errorf("%w: integrator unstable (trace %v); increase Substeps", ErrBadReservoir, tr)
	}
	return snaps, nil
}

// snapshot returns one feature snapshot: the joint Fock populations plus,
// when enabled, the quadrature taps <x>, <p>, <n> of every mode.
func (r *Reservoir) snapshot() []float64 {
	out := r.Features()
	for m := range r.xOps {
		out = append(out,
			realTrace(r.rho, r.xOps[m]),
			realTrace(r.rho, r.pOps[m]),
			realTrace(r.rho, r.nOps[m]))
	}
	return out
}

// realTrace returns Re Tr(rho * op).
func realTrace(rho, op *qmath.Matrix) float64 {
	var acc complex128
	n := rho.Rows
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			x := op.At(k, i)
			if x != 0 {
				acc += rho.At(i, k) * x
			}
		}
	}
	return real(acc)
}

// PopulationLen returns the number of joint Fock populations per
// snapshot (Dim^Modes).
func (r *Reservoir) PopulationLen() int { return r.space.Total() }

// SnapshotLen returns the length of one feature snapshot.
func (r *Reservoir) SnapshotLen() int {
	n := r.space.Total()
	if r.params.QuadratureTaps {
		n += 3 * r.params.Modes
	}
	return n
}

// VirtualNodes returns the time-multiplexing factor.
func (r *Reservoir) VirtualNodes() int { return r.virtual }

// Features returns the current joint Fock populations P(n_0,...,n_k) —
// the reservoir's "neurons" (81 of them for two 9-level modes).
func (r *Reservoir) Features() []float64 {
	dim := r.space.Total()
	out := make([]float64, dim)
	for i := 0; i < dim; i++ {
		p := real(r.rho.At(i, i))
		if p < 0 {
			p = 0
		}
		out[i] = p
	}
	return out
}

// MeanPhotons returns <n_m> for each mode.
func (r *Reservoir) MeanPhotons() []float64 {
	out := make([]float64, r.params.Modes)
	feats := r.Features()
	digits := make([]int, r.params.Modes)
	for i, p := range feats {
		r.space.DigitsInto(i, digits)
		for m, n := range digits {
			out[m] += p * float64(n)
		}
	}
	return out
}

// Run resets the reservoir, feeds the input sequence, and returns the
// feature vector after each sample: VirtualNodes concatenated snapshots
// (populations plus optional quadrature taps), plus the raw input when
// IncludeInput is set.
func (r *Reservoir) Run(inputs []float64) ([][]float64, error) {
	r.Reset()
	out := make([][]float64, 0, len(inputs))
	for i, u := range inputs {
		snaps, err := r.feedMultiplexed(u, r.virtual)
		if err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
		row := make([]float64, 0, r.virtual*r.SnapshotLen()+1)
		for _, s := range snaps {
			row = append(row, s...)
		}
		if r.params.IncludeInput {
			row = append(row, u)
		}
		out = append(out, row)
	}
	return out, nil
}

// TopOccupation returns the population of the highest Fock level summed
// over modes — a truncation-health diagnostic: values near zero certify
// the truncation.
func (r *Reservoir) TopOccupation() float64 {
	feats := r.Features()
	digits := make([]int, r.params.Modes)
	var acc float64
	for i, p := range feats {
		r.space.DigitsInto(i, digits)
		for _, n := range digits {
			if n == r.params.Dim-1 {
				acc += p
				break
			}
		}
	}
	return acc
}
