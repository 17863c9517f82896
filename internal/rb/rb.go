// Package rb implements qudit randomized benchmarking on the simulator,
// reproducing the protocol of Bornman et al. ("Benchmarking the
// performance of a high-Q cavity qudit using random unitaries", ref [9]
// of the paper): sequences of Haar-random single-qudit unitaries followed
// by the exact inverse, whose survival probability decays exponentially
// in the sequence length with a rate set by the average gate error.
package rb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"quditkit/internal/density"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
	"quditkit/internal/qmath"
)

// ErrBadProtocol indicates invalid benchmarking parameters.
var ErrBadProtocol = errors.New("rb: invalid protocol")

// Options configures a randomized-benchmarking run.
type Options struct {
	// Dim is the qudit dimension.
	Dim int
	// Lengths lists the random-sequence lengths to probe (each followed
	// by one inversion gate).
	Lengths []int
	// Sequences is the number of random sequences averaged per length.
	// Zero selects 8.
	Sequences int
	// Noise is the per-gate error model applied to every random gate and
	// to the final inverse.
	Noise noise.Model
}

func (o Options) withDefaults() Options {
	if o.Sequences == 0 {
		o.Sequences = 8
	}
	return o
}

// Point is the averaged survival probability at one sequence length.
type Point struct {
	Length   int
	Survival float64
}

// Result is a full benchmarking run with the fitted decay.
type Result struct {
	Dim    int
	Points []Point
	// DecayRate is the fitted p in survival = A p^m + B.
	DecayRate float64
	// AvgGateInfidelity is the standard RB estimate
	// r = (d-1)/d (1 - p).
	AvgGateInfidelity float64
}

// Run executes the protocol: for each length m, draw m Haar-random
// unitaries, apply them with per-gate noise, apply the noiseless exact
// inverse of the composition, and record the probability of returning to
// |0>.
func Run(rng *rand.Rand, opts Options) (*Result, error) {
	if opts.Dim < 2 {
		return nil, fmt.Errorf("%w: dim=%d", ErrBadProtocol, opts.Dim)
	}
	if len(opts.Lengths) < 2 {
		return nil, fmt.Errorf("%w: need at least two lengths", ErrBadProtocol)
	}
	for _, m := range opts.Lengths {
		if m < 1 {
			return nil, fmt.Errorf("%w: length %d", ErrBadProtocol, m)
		}
	}
	opts = opts.withDefaults()
	d := opts.Dim
	dims := hilbert.Dims{d}

	res := &Result{Dim: d}
	for _, m := range opts.Lengths {
		var sum float64
		for s := 0; s < opts.Sequences; s++ {
			rho, err := density.NewZero(dims)
			if err != nil {
				return nil, err
			}
			total := qmath.Identity(d)
			for g := 0; g < m; g++ {
				u := qmath.RandomUnitary(rng, d)
				total = u.Mul(total)
				if err := rho.ApplyUnitary(u, []int{0}); err != nil {
					return nil, err
				}
				if err := applyGateNoise(rho, opts.Noise, d); err != nil {
					return nil, err
				}
			}
			// Exact inverse, also noisy (it is a gate like any other).
			if err := rho.ApplyUnitary(total.Dagger(), []int{0}); err != nil {
				return nil, err
			}
			if err := applyGateNoise(rho, opts.Noise, d); err != nil {
				return nil, err
			}
			sum += real(rho.At(0, 0))
		}
		res.Points = append(res.Points, Point{Length: m, Survival: sum / float64(opts.Sequences)})
	}
	p, err := FitDecay(res.Points, d)
	if err != nil {
		return nil, err
	}
	res.DecayRate = p
	res.AvgGateInfidelity = float64(d-1) / float64(d) * (1 - p)
	return res, nil
}

func applyGateNoise(rho *density.DM, model noise.Model, d int) error {
	for _, ch := range model.GateChannels(d, 1) {
		if err := rho.ApplyKraus(ch.Kraus, []int{0}); err != nil {
			return err
		}
	}
	return nil
}

// FitDecay estimates the per-gate decay p from survival = A p^m + B,
// with B fixed to the depolarized floor 1/d, by least squares on
// log(survival - 1/d); p is clamped to at most 1. It is the one RB fit:
// E12 and the served RB sweep aggregate both use it.
func FitDecay(points []Point, d int) (float64, error) {
	floor := 1 / float64(d)
	var sx, sy, sxx, sxy float64
	n := 0
	for _, pt := range points {
		y := pt.Survival - floor
		if y <= 1e-12 {
			continue // fully decayed points carry no slope information
		}
		x := float64(pt.Length)
		ly := math.Log(y)
		sx += x
		sy += ly
		sxx += x * x
		sxy += x * ly
		n++
	}
	if n < 2 {
		return 0, fmt.Errorf("%w: decay fully saturated, no slope to fit", ErrBadProtocol)
	}
	den := float64(n)*sxx - sx*sx
	if den == 0 {
		return 0, fmt.Errorf("%w: degenerate lengths", ErrBadProtocol)
	}
	slope := (float64(n)*sxy - sx*sy) / den
	return min(math.Exp(slope), 1), nil
}
