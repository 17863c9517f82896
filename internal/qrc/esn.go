package qrc

import (
	"fmt"
	"math"
	"math/rand"
)

// ESN is a classical echo-state network baseline: a random sparse
// recurrent reservoir with tanh nonlinearity,
//
//	x(t+1) = tanh(W x(t) + w_in u(t)),
//
// with W rescaled to a target spectral radius < 1 for the echo-state
// property. Comparing the quantum reservoir against ESNs of growing size
// reproduces the reference study's "equivalent neurons" claim.
type ESN struct {
	n    int
	w    [][]float64
	wIn  []float64
	x    []float64
	leak float64
}

// NewESN builds an ESN with n neurons, target spectral radius rho, input
// scale, and leak rate (1 = no leaking).
func NewESN(rng *rand.Rand, n int, rho, inputScale, leak float64) (*ESN, error) {
	if n < 1 || rho <= 0 || rho >= 1.5 || leak <= 0 || leak > 1 {
		return nil, fmt.Errorf("qrc: bad ESN parameters n=%d rho=%v leak=%v", n, rho, leak)
	}
	e := &ESN{n: n, leak: leak}
	e.w = make([][]float64, n)
	const density = 0.2
	for i := range e.w {
		e.w[i] = make([]float64, n)
		for j := range e.w[i] {
			if rng.Float64() < density {
				e.w[i][j] = rng.NormFloat64()
			}
		}
	}
	// Power iteration for the spectral radius estimate.
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	var lambda float64
	for iter := 0; iter < 60; iter++ {
		nv := make([]float64, n)
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += e.w[i][j] * v[j]
			}
			nv[i] = s
		}
		var norm float64
		for _, x := range nv {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			break
		}
		lambda = norm
		for i := range nv {
			nv[i] /= norm
		}
		v = nv
	}
	if lambda > 0 {
		scale := rho / lambda
		for i := range e.w {
			for j := range e.w[i] {
				e.w[i][j] *= scale
			}
		}
	}
	e.wIn = make([]float64, n)
	for i := range e.wIn {
		e.wIn[i] = inputScale * (2*rng.Float64() - 1)
	}
	e.Reset()
	return e, nil
}

// Reset zeroes the reservoir state.
func (e *ESN) Reset() { e.x = make([]float64, e.n) }

// Run resets the network, feeds the input sequence, and returns the state
// vector after each sample.
func (e *ESN) Run(inputs []float64) ([][]float64, error) {
	e.Reset()
	out := make([][]float64, 0, len(inputs))
	for _, u := range inputs {
		nx := make([]float64, e.n)
		for i := 0; i < e.n; i++ {
			s := e.wIn[i] * u
			row := e.w[i]
			for j, xj := range e.x {
				s += row[j] * xj
			}
			nx[i] = (1-e.leak)*e.x[i] + e.leak*math.Tanh(s)
		}
		e.x = nx
		snapshot := make([]float64, e.n)
		copy(snapshot, nx)
		out = append(out, snapshot)
	}
	return out, nil
}
