package core

import (
	"context"
	"fmt"
	"sync"

	"quditkit/internal/arch"
	"quditkit/internal/noise"
	"quditkit/internal/transpile"
)

// BackendKind names one of the built-in execution backends.
type BackendKind int

const (
	// Statevector executes noiselessly on the pure-state simulator — the
	// fastest backend, exact amplitudes, no noise support.
	Statevector BackendKind = iota
	// DensityMatrix executes on the density-matrix simulator with exact
	// Kraus-channel noise — the reference for noisy results, limited to
	// small registers.
	DensityMatrix
	// Trajectory executes Monte-Carlo quantum-trajectory unravelings of
	// the noisy circuit, one pure-state simulation per shot, parallelized
	// across a worker pool — the scalable noisy backend.
	Trajectory
)

// String returns the backend's stable name.
func (k BackendKind) String() string {
	switch k {
	case Statevector:
		return "statevector"
	case DensityMatrix:
		return "density-matrix"
	case Trajectory:
		return "trajectory"
	default:
		return fmt.Sprintf("BackendKind(%d)", int(k))
	}
}

// runConfig is the resolved configuration of one job.
type runConfig struct {
	backend  BackendKind
	shots    int
	noise    noise.Model
	noiseSet bool
	seed     int64
	seedSet  bool
	workers  int
	device   *arch.Device
	level    transpile.Level
	ctx      context.Context
}

func defaultRunConfig() runConfig {
	return runConfig{backend: Statevector, workers: 1}
}

// configPool recycles the scratch configs resolveOptions applies
// options to. An option is an opaque func(*runConfig), so the config
// it is handed escapes to the heap; recycling it keeps resolving an
// option list — which the job service does on every admission, cache
// hits included — free of allocations.
var configPool = sync.Pool{New: func() any { return new(runConfig) }}

// resolveOptions applies opts, in order, to the default configuration.
func resolveOptions(opts []RunOption) runConfig {
	p := configPool.Get().(*runConfig)
	*p = defaultRunConfig()
	for _, opt := range opts {
		opt(p)
	}
	cfg := *p
	*p = runConfig{} // drop the context and device before pooling
	configPool.Put(p)
	return cfg
}

// RunOption configures one job's execution; pass options to NewJob or
// Processor.SubmitOne.
type RunOption func(*runConfig)

// WithShots requests a sampled histogram with n measurement shots; the
// Result's Counts field is populated. On the Trajectory backend the shot
// count is also the number of trajectories simulated. Zero (the default)
// skips sampling and returns only the exact state/density output.
func WithShots(n int) RunOption {
	return func(c *runConfig) { c.shots = n }
}

// WithNoise attaches a per-gate noise model to the job. The Statevector
// backend rejects non-zero noise; DensityMatrix applies it exactly;
// Trajectory applies it stochastically per shot. An explicit model
// always wins over the device-derived one a transpile.LevelNoise
// pipeline would attach — passing the zero model therefore forces a
// noiseless run even at that level.
func WithNoise(m noise.Model) RunOption {
	return func(c *runConfig) { c.noise = m; c.noiseSet = true }
}

// WithDevice targets the job at an explicit device instead of the
// processor's own: placement, routing, duration and fidelity budgets,
// and (at transpile.LevelNoise) the derived noise model all evaluate
// against it. The device fingerprint is part of OptionsDigest, so jobs
// targeting different devices never share a cached result.
func WithDevice(dev arch.Device) RunOption {
	return func(c *runConfig) { d := dev; c.device = &d }
}

// WithTranspile selects the transpile level the job's circuit is
// lowered through before compilation (default transpile.LevelRoute —
// placement and routing only, the behavior Submit has always had).
// transpile.LevelNative additionally rewrites gates into the
// cavity-native set; transpile.LevelNoise additionally attaches the
// device-derived noise model, which the Statevector backend will then
// reject (use DensityMatrix or Trajectory for device-noise runs).
func WithTranspile(level transpile.Level) RunOption {
	return func(c *runConfig) { c.level = level }
}

// WithBackend selects the execution backend (default Statevector).
func WithBackend(k BackendKind) RunOption {
	return func(c *runConfig) { c.backend = k }
}

// WithSeed pins the job's random seed. Without it the seed is derived
// from the processor's base seed and the circuit fingerprint, so results
// are reproducible and independent of batch order either way; the option
// exists for explicit replay and decorrelating identical circuits.
func WithSeed(s int64) RunOption {
	return func(c *runConfig) { c.seed = s; c.seedSet = true }
}

// WithWorkers sets the goroutine pool width for backends that can run
// shots concurrently (Trajectory). Values below 1 select 1, which is
// also the default. Counts are bit-for-bit independent of the worker
// count: each trajectory owns a seed-derived stream keyed by its shot
// index.
func WithWorkers(n int) RunOption {
	return func(c *runConfig) { c.workers = n }
}

// WithContext attaches a cancellation context to the job. Submit checks
// it before compiling, and long-running backends (Trajectory) poll it
// between trajectories, so cancelling the context aborts the job
// promptly — mid-batch, without waiting for the in-flight shots to
// drain — returning the context's error. A nil or absent context means
// the job runs to completion. The context never influences results:
// it is excluded from OptionsDigest.
func WithContext(ctx context.Context) RunOption {
	return func(c *runConfig) { c.ctx = ctx }
}

// ContextOf resolves the context an option list selects (nil when no
// WithContext is present). Job-service layers that wrap submissions in
// their own cancellation context use it to derive that context from
// the caller's instead of silently overriding it.
func ContextOf(opts ...RunOption) context.Context {
	return resolveOptions(opts).ctx
}

// ShotsOf resolves the shot count an option list selects (zero when no
// WithShots is present). Job-service layers use it for load gauges —
// the inflight-shot count is the best single predictor of how much
// simulation work a queue holds, since trajectory cost scales with
// shots while exact backends run one pass regardless.
func ShotsOf(opts ...RunOption) int {
	return resolveOptions(opts).shots
}
