package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"quditkit/internal/transpile"
)

// OptionsDigest hashes the result-determining part of a job's run
// options into a stable content address: backend kind, shot count,
// explicit seed (and whether one was set), every noise-model rate (and
// whether an explicit model was set — explicit zero noise suppresses
// LevelNoise annotation, so the flag is result-determining), the
// transpile level, and the target-device fingerprint when WithDevice
// overrides the processor's own. Two option lists with equal digests
// submitted for the same circuit to the same processor produce
// byte-identical Results, which is the contract the job-service result
// cache relies on.
//
// Deliberately excluded: WithWorkers and WithShotBatch (trajectory
// counts are bit-identical for any worker count and batch size) and
// WithContext (cancellation never influences a completed result).
// Submissions differing only in those options therefore share a cache
// entry.
func OptionsDigest(opts ...RunOption) uint64 {
	cfg := resolveOptions(opts)
	h := fnv.New64a()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeU64(uint64(cfg.backend))
	writeU64(uint64(cfg.shots))
	if cfg.seedSet {
		writeU64(1)
		writeU64(uint64(cfg.seed))
	} else {
		writeU64(0)
	}
	if cfg.noiseSet {
		writeU64(1)
	} else {
		writeU64(0)
	}
	for _, rate := range []float64{
		cfg.noise.Depol1, cfg.noise.Depol2,
		cfg.noise.Damping, cfg.noise.Dephasing,
		cfg.noise.IdleDamping, cfg.noise.IdleDephasing,
	} {
		writeU64(math.Float64bits(rate))
	}
	writeU64(uint64(cfg.level))
	if cfg.device != nil {
		writeU64(1)
		writeU64(transpile.DeviceFingerprint(*cfg.device))
	} else {
		writeU64(0)
	}
	return h.Sum64()
}

// TranspileKey hashes the transpile-determining part of a job's run
// options — the transpile level and the target-device fingerprint (zero
// when the job runs on the processor's own device) — into a stable
// content address. It is the option-level projection of
// ExecSpec.TranspileFP: two option lists with equal TranspileKeys lower
// a given circuit through the same pipeline. Today these fields are a
// subset of what OptionsDigest hashes, so equal digests imply equal
// TranspileKeys; the cluster routing key (cluster.JobKey) still takes
// it as an explicit third component so the routing contract mirrors
// the plan-cache key shape (Fingerprint, TranspileFP, model) and stays
// correct even if OptionsDigest's coverage evolves.
func TranspileKey(opts ...RunOption) uint64 {
	cfg := resolveOptions(opts)
	h := fnv.New64a()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeU64(uint64(cfg.level))
	if cfg.device != nil {
		writeU64(1)
		writeU64(transpile.DeviceFingerprint(*cfg.device))
	} else {
		writeU64(0)
	}
	return h.Sum64()
}
