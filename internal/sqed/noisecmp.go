package sqed

import (
	"fmt"
	"math"

	"quditkit/internal/circuit"
	"quditkit/internal/density"
	"quditkit/internal/noise"
	"quditkit/internal/qmath"
	"quditkit/internal/synth"
)

// Encoding selects how the rotor register is realized.
type Encoding int

const (
	// EncodingQudit uses one native d-level qudit per site; each Trotter
	// bond term is a single hardware entangler.
	EncodingQudit Encoding = iota + 1
	// EncodingQubit uses ceil(log2 d) qubits per site; each logical gate
	// is charged its compiled CNOT count.
	EncodingQubit
)

// String implements fmt.Stringer.
func (e Encoding) String() string {
	switch e {
	case EncodingQudit:
		return "qudit"
	case EncodingQubit:
		return "qubit"
	default:
		return fmt.Sprintf("encoding(%d)", int(e))
	}
}

// NoiseComparison holds the measured infidelity of one encoding at one
// physical error rate.
type NoiseComparison struct {
	Encoding   Encoding
	ErrorRate  float64
	Infidelity float64
}

// gateChargeFactors returns, for one Trotter step of the given encoding,
// the per-wire effective depolarizing multiplier of each op: the number
// of elementary noisy entangler applications each touched wire
// experiences when the logical gate is compiled to hardware.
//
// Native qudit gates are their own hardware primitives (factor 1). Qubit
// logical gates are priced by the Gray-code CNOT compilation of their
// padded unitaries; each CNOT touches 2 of the gate's wires, so a gate
// with C CNOTs on w wires charges each wire 2C/w applications.
func (r *Rotor) gateChargeFactors(enc Encoding, dt float64) (oneQ, twoQ float64, err error) {
	switch enc {
	case EncodingQudit:
		return 1, 1, nil
	case EncodingQubit:
		nq := r.QubitsPerSite()
		// Electric (diagonal) logical gate on nq qubits.
		diag, hop, derr := r.paddedStepUnitaries(dt)
		if derr != nil {
			return 0, 0, derr
		}
		elecRep, cerr := synth.QubitCompileCost(diag)
		if cerr != nil {
			return 0, 0, fmt.Errorf("electric compile: %w", cerr)
		}
		hopRep, cerr := synth.QubitCompileCost(hop)
		if cerr != nil {
			return 0, 0, fmt.Errorf("hop compile: %w", cerr)
		}
		oneQ = math.Max(1, 2*float64(elecRep.CNOTs)/float64(nq))
		twoQ = math.Max(1, 2*float64(hopRep.CNOTs)/float64(2*nq))
		return oneQ, twoQ, nil
	default:
		return 0, 0, fmt.Errorf("%w: unknown encoding %d", ErrBadModel, int(enc))
	}
}

// paddedStepUnitaries returns the padded electric and hopping unitaries of
// one Trotter step in the qubit encoding.
func (r *Rotor) paddedStepUnitaries(dt float64) (elec, hop *qmath.Matrix, err error) {
	c, err := r.QubitTrotterCircuit(dt, 1)
	if err != nil {
		return nil, nil, err
	}
	ops := c.Ops()
	if len(ops) < r.NumSites+1 {
		return nil, nil, fmt.Errorf("%w: unexpected qubit step structure", ErrBadModel)
	}
	return ops[0].Gate.Matrix, ops[r.NumSites].Gate.Matrix, nil
}

// RunEncodedNoisy Trotter-evolves the rotor for the given step count under
// per-entangler depolarizing probability p, in the chosen encoding, and
// returns the infidelity 1 - F against the noiseless Trotter state.
//
// The noise accounting charges every touched wire an effective
// depolarizing probability 1 - (1-p)^k, where k is the number of
// elementary hardware entangler applications that wire sees for the
// logical gate (1 for native qudit gates; the compiled CNOT share for
// qubit-encoded gates). Single-qudit/qubit primitives are charged p/10
// per application, the customary 1:10 fidelity ratio.
func (r *Rotor) RunEncodedNoisy(enc Encoding, dt float64, steps int, p float64) (float64, error) {
	var c *circuit.Circuit
	var err error
	switch enc {
	case EncodingQudit:
		c, err = r.TrotterCircuit(dt, steps)
	case EncodingQubit:
		c, err = r.QubitTrotterCircuit(dt, steps)
	default:
		return 0, fmt.Errorf("%w: unknown encoding %d", ErrBadModel, int(enc))
	}
	if err != nil {
		return 0, err
	}
	plan, err := c.Compile(noise.Model{})
	if err != nil {
		return 0, err
	}
	ws, err := plan.NewWorkspace()
	if err != nil {
		return 0, err
	}
	ideal := plan.RunPure(ws)
	oneQ, twoQ, err := r.gateChargeFactors(enc, dt)
	if err != nil {
		return 0, err
	}

	rho, err := density.NewZero(c.Dims())
	if err != nil {
		return 0, err
	}
	sp := rho.Space()
	for _, op := range c.Ops() {
		if err := rho.Apply(op.Gate, op.Targets...); err != nil {
			return 0, err
		}
		if p <= 0 {
			continue
		}
		charge := twoQ
		base := p
		if op.Gate.Arity() == 1 || (enc == EncodingQubit && len(op.Targets) == r.QubitsPerSite()) {
			charge = oneQ
			base = p / 10
		}
		eff := 1 - math.Pow(1-base, charge)
		for _, w := range op.Targets {
			ch := noise.Depolarizing(sp.Dim(w), eff)
			if err := rho.ApplyKraus(ch.Kraus, []int{w}); err != nil {
				return 0, err
			}
		}
	}
	f, err := rho.FidelityPure(ideal.Amplitudes())
	if err != nil {
		return 0, err
	}
	return 1 - f, nil
}

// NoiseThreshold sweeps physical error rates and returns the rate at
// which the encoding's infidelity first exceeds the target (linearly
// interpolated). rates must be increasing.
func (r *Rotor) NoiseThreshold(enc Encoding, dt float64, steps int, rates []float64, target float64) (float64, []NoiseComparison, error) {
	if len(rates) < 2 {
		return 0, nil, fmt.Errorf("%w: need at least two rates", ErrBadModel)
	}
	curve := make([]NoiseComparison, 0, len(rates))
	var xs, ys []float64
	for _, p := range rates {
		inf, err := r.RunEncodedNoisy(enc, dt, steps, p)
		if err != nil {
			return 0, nil, err
		}
		curve = append(curve, NoiseComparison{Encoding: enc, ErrorRate: p, Infidelity: inf})
		xs = append(xs, p)
		ys = append(ys, inf)
	}
	thr, err := crossing(xs, ys, target)
	if err != nil {
		// Curve never crossed: report the last rate as a lower bound.
		return rates[len(rates)-1], curve, nil
	}
	return thr, curve, nil
}

func crossing(xs, ys []float64, level float64) (float64, error) {
	for i := 1; i < len(xs); i++ {
		if (ys[i-1] < level) != (ys[i] < level) {
			y0, y1 := ys[i-1], ys[i]
			if y1 == y0 {
				return xs[i-1], nil
			}
			return xs[i-1] + (level-y0)*(xs[i]-xs[i-1])/(y1-y0), nil
		}
	}
	return 0, fmt.Errorf("sqed: no crossing at level %g", level)
}
