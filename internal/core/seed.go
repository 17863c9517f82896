package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"quditkit/internal/circuit"
)

// Stream salts separating the independent random streams derived from
// one job seed: placement annealing must not share draws with outcome
// sampling, or changing the shot count would change the mapping.
const (
	streamMapping  = 0x6d617070 // "mapp"
	streamSampling = 0x73616d70 // "samp"
)

// mixSeed combines a base seed with a stream tag through a splitmix64
// finalizer, giving well-separated deterministic substreams.
func mixSeed(base int64, stream uint64) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// DeriveSeed deterministically derives an independent named random
// stream from a base seed. It is the seed-splitting rule Submit uses
// internally, exported so drivers can give every consumer (per-job
// sampling, classical baselines, readout shot noise, ...) its own
// reproducible stream instead of sharing one mutable rand.Rand whose
// draws depend on call order.
func DeriveSeed(base int64, stream string) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return mixSeed(base, h.Sum64())
}

// Fingerprint hashes a circuit's register dimensions and op list into
// a stable content address. Every gate's full unitary is hashed, not
// just its name: gate names drop continuous parameters (a Phase gate
// prints as "P3(1)" for any phi), so name-only hashing would collide
// distinct circuits — fatal for a result cache. Submit also folds the
// fingerprint into the per-job seed, so identical jobs are
// reproducible and distinct jobs in one batch draw from decorrelated
// streams, independent of submission order; the job-service result
// cache keys on (Fingerprint, OptionsDigest) to recognize repeated
// submissions.
func Fingerprint(c *circuit.Circuit) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for w := 0; w < c.NumWires(); w++ {
		writeU64(uint64(c.Dim(w)))
	}
	for i := 0; i < c.Len(); i++ {
		op := c.Op(i)
		h.Write([]byte(op.Gate.Name))
		for _, t := range op.Targets {
			writeU64(uint64(t))
		}
		if op.Gate.Matrix != nil {
			for _, a := range op.Gate.Matrix.Data {
				writeU64(math.Float64bits(real(a)))
				writeU64(math.Float64bits(imag(a)))
			}
		}
	}
	return h.Sum64()
}

// circuitFingerprint is the internal alias of Fingerprint, kept so seed
// derivation reads as an implementation detail at its call sites.
func circuitFingerprint(c *circuit.Circuit) uint64 { return Fingerprint(c) }
