package sqed

import (
	"fmt"

	"quditkit/internal/fit"
	"quditkit/internal/noise"
	"quditkit/internal/qmath"
	"quditkit/internal/state"
)

// QuenchResult reports a real-time mass-gap measurement.
type QuenchResult struct {
	// Times and Signal are the recorded <O(t)> series.
	Times  []float64
	Signal []float64
	// GapMeasured is the dominant oscillation frequency of the signal.
	GapMeasured float64
	// GapExact is E1 - E0 from diagonalization.
	GapExact float64
}

// MassGapQuench performs the real-time protocol of [11]: prepare the
// ground state, excite it with a weak local perturbation (1 + eps*(U +
// U†) on site 0, renormalized), Trotter-evolve, and record <Lz_0(t)>. The
// beat frequency of the signal is the mass gap.
//
// dt is the Trotter step, steps the number of recorded points.
func (r *Rotor) MassGapQuench(dt float64, steps int, eps float64) (*QuenchResult, error) {
	if steps < 8 {
		return nil, fmt.Errorf("%w: need >= 8 steps for spectral fit", ErrBadModel)
	}
	gs, err := r.GroundState()
	if err != nil {
		return nil, err
	}
	gapExact, err := r.MassGapExact()
	if err != nil {
		return nil, err
	}
	// Perturb: psi = N (1 + eps (U_0 + U_0†)) |gs>.
	u := r.Raising()
	pert := u.Add(u.Dagger()).Scale(complex(eps, 0))
	v, err := state.FromAmplitudes(r.Dims(), gs)
	if err != nil {
		return nil, err
	}
	excited := v.Clone()
	if err := excited.ApplyMatrix(qmath.Identity(r.LocalDim()).Add(pert), []int{0}); err != nil {
		return nil, err
	}
	amps := excited.Amplitudes()
	if amps.Normalize() == 0 {
		return nil, fmt.Errorf("%w: perturbation annihilated the state", ErrBadModel)
	}
	cur, err := state.FromAmplitudes(r.Dims(), amps)
	if err != nil {
		return nil, err
	}

	stepCirc, err := r.TrotterCircuit(dt, 1)
	if err != nil {
		return nil, err
	}
	step, err := stepCirc.Compile(noise.Model{})
	if err != nil {
		return nil, err
	}
	ws, err := step.NewWorkspace()
	if err != nil {
		return nil, err
	}
	// Observable: U + U† on site 0 (couples the gap-separated states and
	// therefore oscillates at the gap frequency).
	obs := u.Add(u.Dagger())

	res := &QuenchResult{GapExact: gapExact}
	for s := 0; s < steps; s++ {
		val, err := cur.ExpectationHermitian(obs, []int{0})
		if err != nil {
			return nil, err
		}
		res.Times = append(res.Times, float64(s)*dt)
		res.Signal = append(res.Signal, val)
		if err := step.RunPureOn(ws, cur); err != nil {
			return nil, err
		}
	}
	// Remove the DC offset before spectral analysis.
	mean := fit.Mean(res.Signal)
	centered := make([]float64, len(res.Signal))
	for i, v := range res.Signal {
		centered[i] = v - mean
	}
	freq, err := fit.DominantFrequency(centered, dt)
	if err != nil {
		return nil, fmt.Errorf("spectral fit: %w", err)
	}
	res.GapMeasured = freq
	return res, nil
}
