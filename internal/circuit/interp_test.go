package circuit

// The per-op interpreter: the reference engine the differential grid
// (difftest_test.go) and this package's tests hold the compiled Plan
// to, bit for bit. It lives in test code so that production has one
// engine per path; the external test package sees these methods too.

import (
	"fmt"
	"math/rand"

	"quditkit/internal/density"
	"quditkit/internal/noise"
	"quditkit/internal/qmath"
	"quditkit/internal/state"
)

// Run executes the circuit noiselessly on a fresh |0...0> state and
// returns the final state.
func (c *Circuit) Run() (*state.Vec, error) {
	v, err := state.NewZero(c.space.Dims())
	if err != nil {
		return nil, err
	}
	if err := c.RunOn(v); err != nil {
		return nil, err
	}
	return v, nil
}

// RunOn executes the circuit noiselessly on an existing state in place.
func (c *Circuit) RunOn(v *state.Vec) error {
	if !v.Dims().Equal(c.space.Dims()) {
		return fmt.Errorf("circuit: state dims %v != circuit dims %v", v.Dims(), c.space.Dims())
	}
	for i, op := range c.ops {
		if err := v.Apply(op.Gate, op.Targets...); err != nil {
			return fmt.Errorf("op %d (%s): %w", i, op.Gate.Name, err)
		}
	}
	return nil
}

// RunDensityOn executes the circuit on an existing density matrix in place
// under the given noise model.
func (c *Circuit) RunDensityOn(r *density.DM, model noise.Model) error {
	if !r.Dims().Equal(c.space.Dims()) {
		return fmt.Errorf("circuit: density dims %v != circuit dims %v", r.Dims(), c.space.Dims())
	}
	hasIdle := model.IdleDamping > 0 || model.IdleDephasing > 0
	if !hasIdle {
		for i, op := range c.ops {
			if err := c.applyNoisyOp(r, op, model); err != nil {
				return fmt.Errorf("op %d (%s): %w", i, op.Gate.Name, err)
			}
		}
		return nil
	}
	// Moment-at-a-time execution so idle decoherence can be charged to
	// untouched wires.
	for _, moment := range c.Moments() {
		touched := make([]bool, c.space.NumWires())
		for _, opIdx := range moment {
			op := c.ops[opIdx]
			if err := c.applyNoisyOp(r, op, model); err != nil {
				return fmt.Errorf("op %d (%s): %w", opIdx, op.Gate.Name, err)
			}
			for _, t := range op.Targets {
				touched[t] = true
			}
		}
		for w := 0; w < c.space.NumWires(); w++ {
			if touched[w] {
				continue
			}
			for _, ch := range model.IdleChannels(c.space.Dim(w)) {
				if err := r.ApplyKraus(ch.Kraus, []int{w}); err != nil {
					return fmt.Errorf("idle noise wire %d: %w", w, err)
				}
			}
		}
	}
	return nil
}

func (c *Circuit) applyNoisyOp(r *density.DM, op Op, model noise.Model) error {
	if err := r.Apply(op.Gate, op.Targets...); err != nil {
		return err
	}
	if model.IsZero() {
		return nil
	}
	arity := op.Gate.Arity()
	for _, t := range op.Targets {
		for _, ch := range model.GateChannels(c.space.Dim(t), arity) {
			if err := r.ApplyKraus(ch.Kraus, []int{t}); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunTrajectory executes one stochastic quantum-trajectory unraveling of
// the noisy circuit on a pure state: after each gate, one Kraus operator
// of each noise channel is sampled with its Born probability and applied.
// Averaging projectors over many trajectories converges to the
// density-matrix result; the method trades variance for memory.
func (c *Circuit) RunTrajectory(rng *rand.Rand, model noise.Model) (*state.Vec, error) {
	v, err := state.NewZero(c.space.Dims())
	if err != nil {
		return nil, err
	}
	for i, op := range c.ops {
		if err := v.Apply(op.Gate, op.Targets...); err != nil {
			return nil, fmt.Errorf("op %d (%s): %w", i, op.Gate.Name, err)
		}
		if model.IsZero() {
			continue
		}
		arity := op.Gate.Arity()
		for _, t := range op.Targets {
			for _, ch := range model.GateChannels(c.space.Dim(t), arity) {
				if err := applyChannelStochastic(rng, v, ch, t); err != nil {
					return nil, err
				}
			}
		}
	}
	return v, nil
}

// applyChannelStochastic samples one Kraus branch according to the Born
// probabilities ||K_k psi||^2 and applies it with renormalization.
//
// The branch probabilities never materialize a branch state: monomial
// Kraus sets (every built-in channel) need only the wire's marginal
// populations, O(D), and dense ones fall back to the wire's reduced
// density matrix, O(D d^2). The state's amplitudes are accessed
// zero-copy — this path used to clone the full vector per channel
// application. It compiles the channel on every call and shares the
// sampling/application code with the Plan engine, which caches that
// compilation; the two are therefore byte-identical for a fixed rng.
func applyChannelStochastic(rng *rand.Rand, v *state.Vec, ch noise.Channel, wire int) error {
	cc, err := compileChannel(ch)
	if err != nil {
		return err
	}
	sp := v.Space()
	pc := &plannedChannel{
		compiledChannel: cc,
		wire:            wire,
		stride:          sp.Stride(wire),
		free:            newCoset(sp, []int{wire}),
	}
	return pc.applyStochastic(rng, v.RawAmplitudes(), newChanScratch(sp.NumWires(), cc))
}

// AverageTrajectories runs n stochastic trajectories and returns the
// averaged density matrix, for cross-validation against RunDensity. The
// shots run through a compiled Plan with one reused workspace.
func (c *Circuit) AverageTrajectories(rng *rand.Rand, model noise.Model, n int) (*density.DM, error) {
	p, err := c.Compile(model)
	if err != nil {
		return nil, err
	}
	return p.AverageTrajectories(rng, n)
}

func newChanScratch(numWires int, cc *compiledChannel) *chanScratch {
	cs := chanScratchSized(cc.d, len(cc.kraus), !cc.monomial)
	cs.digits = make([]int, numWires)
	return &cs
}

// AverageTrajectories runs n stochastic shots through one reused
// workspace and returns the averaged density matrix, accumulating the
// outer products in place instead of materializing one per trajectory.
func (p *Plan) AverageTrajectories(rng *rand.Rand, n int) (*density.DM, error) {
	if n <= 0 {
		return nil, fmt.Errorf("circuit: trajectory count must be positive")
	}
	dim := p.space.Total()
	acc := qmath.NewMatrix(dim, dim)
	ws, err := p.NewWorkspace()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		v, err := p.RunShot(ws, rng)
		if err != nil {
			return nil, err
		}
		amps := v.RawAmplitudes()
		for r := 0; r < dim; r++ {
			a := amps[r]
			if a == 0 {
				continue
			}
			row := acc.Row(r)
			for c, b := range amps {
				row[c] += a * complex(real(b), -imag(b))
			}
		}
	}
	inv := complex(1/float64(n), 0)
	for i := range acc.Data {
		acc.Data[i] *= inv
	}
	return density.FromMatrix(p.space.Dims(), acc)
}
