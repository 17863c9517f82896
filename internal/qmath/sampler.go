package qmath

import "math/rand"

// CDFSampler draws indices from an unnormalized non-negative weight
// vector by inverse-CDF binary search. Load builds the cumulative table
// (reusing the internal buffer across calls, so a loaded sampler can be
// refilled every shot without allocating) and Draw performs one O(log n)
// lookup. It replaces the linear-scan samplers that used to live in the
// state, density, and core packages, so every histogram in quditkit now
// shares one tie-breaking convention: Draw returns the first index whose
// cumulative weight reaches r = rng.Float64() * Total. Negative weights
// (numerical dust on density-matrix diagonals) are clamped to zero, and
// a draw that rounds up to exactly Total lands on the last index with
// positive weight, so impossible outcomes never enter a histogram.
type CDFSampler struct {
	cdf   []float64
	total float64
}

// Load rebuilds the cumulative table from the given weights. The weights
// slice is not retained; the internal buffer is reused when capacity
// allows.
func (s *CDFSampler) Load(weights []float64) {
	if cap(s.cdf) < len(weights) {
		s.cdf = make([]float64, len(weights))
	}
	s.cdf = s.cdf[:len(weights)]
	var acc float64
	for i, p := range weights {
		if p > 0 {
			acc += p
		}
		s.cdf[i] = acc
	}
	s.total = acc
}

// Total returns the weight sum of the loaded table.
func (s *CDFSampler) Total() float64 { return s.total }

// Len returns the number of loaded weights.
func (s *CDFSampler) Len() int { return len(s.cdf) }

// Draw samples one index from the loaded distribution using a single
// rng.Float64() call. Drawing from an all-zero table returns index 0.
func (s *CDFSampler) Draw(rng *rand.Rand) int {
	r := rng.Float64() * s.total
	lo, hi := 0, len(s.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cdf[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// r == 0 (a 2^-53 event) lands on the first index even when its
	// weight is zero; walk past the flat prefix so zero-weight outcomes
	// stay impossible. The all-zero table still returns 0.
	for lo < len(s.cdf)-1 {
		prev := 0.0
		if lo > 0 {
			prev = s.cdf[lo-1]
		}
		if s.cdf[lo] > prev || s.cdf[lo] == s.total {
			break
		}
		lo++
	}
	return lo
}

// ShotSource is the trajectory engine's per-shot rand.Source64:
// splitmix64 with an O(1) Seed. The default math/rand source expands
// every Seed into a 607-word lagged-Fibonacci table — profiled at ~46%
// of a compiled noisy shot, because the engine reseeds per shot to give
// trajectory t its own (seed, t)-derived stream. Every trajectory path
// (interpreted, compiled, batched, any worker count) draws from this
// one generator, which is what preserves their byte-identity; shot
// benchmarks reseed through it too, so they time the shot production
// runs. Use it as rand.New(new(ShotSource)).
type ShotSource struct{ s uint64 }

// Seed restarts the stream at seed.
func (src *ShotSource) Seed(seed int64) { src.s = uint64(seed) }

// Uint64 returns the next splitmix64 output.
func (src *ShotSource) Uint64() uint64 {
	src.s += 0x9e3779b97f4a7c15
	z := src.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns the next output as a non-negative int64.
func (src *ShotSource) Int63() int64 { return int64(src.Uint64() >> 1) }
