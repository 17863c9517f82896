package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"quditkit/internal/circuit"
	"quditkit/internal/density"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
	"quditkit/internal/qmath"
	"quditkit/internal/state"
)

// ExecSpec is the resolved execution request handed to a Backend: the
// cancellation context, the noise model, the shot budget, the sampling
// seed, and the worker-pool width. Processor.Submit builds it from the
// job's RunOptions; backends can also be driven directly on un-routed
// circuits.
type ExecSpec struct {
	// Ctx cancels the execution when done; nil means run to completion.
	Ctx     context.Context
	Noise   noise.Model
	Shots   int
	Seed    int64
	Workers int
	// TranspileFP is the fingerprint of the transpile pipeline that
	// produced the circuit (zero for untranspiled circuits); it is part
	// of the compiled-plan cache key, so plans lowered against different
	// devices or transpile levels never alias.
	TranspileFP uint64
	// ShotBatch streams up to this many trajectory state vectors through
	// the plan together per worker (Trajectory backend only), capped at
	// the shots one stripe holds and at the worker's share of the job's
	// circuit.MaxBatchAmps arena budget. Values below 2 select the
	// single-shot path. Results are bit-for-bit identical for every
	// batch size — the differential suite enforces it — so the knob
	// trades memory for throughput, never accuracy.
	ShotBatch int
	// DisableFusion compiles the plan without gate fusion. It exists for
	// the differential and benchmark ablation paths; production requests
	// never set it.
	DisableFusion bool
}

// context returns the spec's context, defaulting to Background.
func (s ExecSpec) context() context.Context {
	if s.Ctx == nil {
		return context.Background()
	}
	return s.Ctx
}

// Execution is a backend's raw output on the register it executed
// (Submit re-keys histograms onto the logical register afterwards).
// Which fields are populated depends on the backend: State for pure
// simulations, Density for exact noisy ones, MeanProbs for
// trajectory-averaged basis probabilities, Counts whenever shots were
// requested.
type Execution struct {
	State     *state.Vec
	Density   *density.DM
	MeanProbs []float64
	Counts    Counts
}

// Backend executes a circuit under an ExecSpec. Implementations must be
// stateless and safe for concurrent use; all randomness derives from
// the spec's seed.
type Backend interface {
	// Kind returns the registry tag of this backend.
	Kind() BackendKind
	// Execute runs the circuit and returns the raw execution output.
	Execute(c *circuit.Circuit, spec ExecSpec) (Execution, error)
}

// BackendFor returns the built-in backend for a kind.
func BackendFor(k BackendKind) (Backend, error) {
	switch k {
	case Statevector:
		return StatevectorBackend{}, nil
	case DensityMatrix:
		return DensityMatrixBackend{}, nil
	case Trajectory:
		return TrajectoryBackend{}, nil
	default:
		return nil, fmt.Errorf("core: unknown backend kind %d", int(k))
	}
}

// StatevectorBackend runs the circuit once on the pure-state simulator.
// It is exact and the cheapest backend, but strictly noiseless: a
// non-zero noise model is rejected rather than silently dropped.
type StatevectorBackend struct{}

// Kind implements Backend.
func (StatevectorBackend) Kind() BackendKind { return Statevector }

// Execute implements Backend. The circuit runs through a cached
// compiled Plan; sampling shares the qmath binary-search sampler, so
// the per-shot cost is one rng draw and one O(log D) lookup, and the
// histogram renders one key per distinct outcome.
func (StatevectorBackend) Execute(c *circuit.Circuit, spec ExecSpec) (Execution, error) {
	if err := spec.context().Err(); err != nil {
		return Execution{}, err
	}
	if !spec.Noise.IsZero() {
		return Execution{}, fmt.Errorf("core: %s backend cannot apply noise; use %s or %s",
			Statevector, DensityMatrix, Trajectory)
	}
	plan, err := planFor(c, noise.Model{}, spec.TranspileFP, spec.DisableFusion)
	if err != nil {
		return Execution{}, fmt.Errorf("%w: %v", ErrNotSimulable, err)
	}
	ws, err := plan.NewWorkspace()
	if err != nil {
		return Execution{}, fmt.Errorf("%w: %v", ErrNotSimulable, err)
	}
	v := plan.RunPure(ws)
	out := Execution{State: v}
	if spec.Shots > 0 {
		rng := rand.New(rand.NewSource(spec.Seed))
		var sampler qmath.CDFSampler
		sampler.Load(ws.BornProbabilities())
		outcomes := make([]int, spec.Shots)
		for s := range outcomes {
			outcomes[s] = sampler.Draw(rng)
		}
		out.Counts = countsFromIndices(plan.Space(), outcomes)
	}
	return out, nil
}

// DensityMatrixBackend runs the circuit once on the density-matrix
// simulator with exact Kraus-channel noise. Memory scales with the
// square of the Hilbert dimension, so it is the reference backend for
// small registers rather than the scalable one.
type DensityMatrixBackend struct{}

// Kind implements Backend.
func (DensityMatrixBackend) Kind() BackendKind { return DensityMatrix }

// Execute implements Backend. Execution goes through a cached compiled
// Plan, whose resolved Kraus sets spare the per-gate channel rebuilds of
// the interpreted path.
func (DensityMatrixBackend) Execute(c *circuit.Circuit, spec ExecSpec) (Execution, error) {
	if err := spec.context().Err(); err != nil {
		return Execution{}, err
	}
	plan, err := planFor(c, spec.Noise, spec.TranspileFP, spec.DisableFusion)
	if err != nil {
		return Execution{}, fmt.Errorf("%w: %v", ErrNotSimulable, err)
	}
	r, err := plan.RunDensity()
	if err != nil {
		return Execution{}, fmt.Errorf("%w: %v", ErrNotSimulable, err)
	}
	out := Execution{Density: r}
	if spec.Shots > 0 {
		rng := rand.New(rand.NewSource(spec.Seed))
		out.Counts = countsFromIndices(r.Space(), r.Sample(rng, spec.Shots))
	}
	return out, nil
}

// TrajectoryBackend runs one stochastic quantum-trajectory unraveling
// per shot and measures each final pure state once, distributing
// trajectories over a goroutine pool of spec.Workers. Every trajectory
// draws from its own stream derived from (seed, shot index), so the
// histogram is identical for any worker count. MeanProbs carries the
// trajectory-averaged basis probabilities; State is additionally set at
// zero noise, where every trajectory is the same deterministic pure run.
//
// Shots execute through a cached compiled circuit.Plan with one reused
// workspace per worker: the state vector is reset, not reallocated, per
// shot, probabilities accumulate into worker-local buffers, and outcome
// sampling reuses one binary-search CDF — O(1) amortized allocations
// per shot. Probabilities accumulate into fixed stripes (shot index mod
// stripe count, merged in stripe order), so MeanProbs is byte-identical
// at any worker count, not just statistically equivalent. Workers claim
// stripes from a shared counter until none is left, so a worker on a
// slowed core simply claims fewer of them.
type TrajectoryBackend struct {
	// Interpreted forces the legacy per-op interpreter
	// (Circuit.RunTrajectory) instead of the compiled Plan engine. Both
	// produce byte-identical Counts and MeanProbs for a fixed seed —
	// the differential tests rely on exactly that — so the flag exists
	// for verification and debugging, never for performance.
	Interpreted bool
}

// Kind implements Backend.
func (TrajectoryBackend) Kind() BackendKind { return Trajectory }

// Trajectory probabilities accumulate into at most trajStripeCap
// stripes, bounded overall to trajStripeMem floats so wide registers
// don't multiply their footprint; the stripe count depends only on
// (shots, dimension), never on the worker count, which is what keeps
// MeanProbs bit-for-bit worker-invariant. Workers beyond the stripe
// count would idle, so the pool is clamped to it. The cap is sized
// past realistic pool widths without inflating the accumulator block
// on narrow runs; on very large registers the memory bound
// deliberately trades parallelism for footprint (a multi-million-dim
// register gets 16 stripes under the 128 MiB budget) — accepting
// worker-dependent accumulator layouts instead would break the
// MeanProbs byte-determinism contract.
const (
	trajStripeCap = 64
	trajStripeMem = 1 << 24 // floats across all stripes (128 MiB)
)

func trajectoryStripes(shots, dim int) int {
	s := trajStripeCap
	if m := trajStripeMem / dim; m < s {
		s = m
	}
	if s < 1 {
		s = 1
	}
	if shots < s {
		s = shots
	}
	return s
}

// trajectoryBatch is the batch width each of a job's workers streams:
// the requested width, capped at the shots one stripe holds (a batch
// never spans stripes) and at an equal share of the job's
// circuit.MaxBatchAmps arena budget, so a job's batch memory does not
// grow with its pool width. Below 2 the workers take the single-shot
// path.
func trajectoryBatch(requested, shots, stripes, workers, dim int) int {
	return min(requested, (shots+stripes-1)/stripes, circuit.MaxBatchAmps/(workers*dim))
}

// Execute implements Backend.
func (b TrajectoryBackend) Execute(c *circuit.Circuit, spec ExecSpec) (Execution, error) {
	ctx := spec.context()
	shots := spec.Shots
	if shots <= 0 {
		shots = 1
	}
	// The interpreter needs no plan (and must not occupy a plan-cache
	// slot or allocate unused workspaces); it only needs the index space.
	var plan *circuit.Plan
	var sp *hilbert.Space
	if b.Interpreted {
		var err error
		sp, err = hilbert.NewSpace(c.Dims())
		if err != nil {
			return Execution{}, err
		}
	} else {
		var err error
		plan, err = planFor(c, spec.Noise, spec.TranspileFP, spec.DisableFusion)
		if err != nil {
			return Execution{}, fmt.Errorf("%w: %v", ErrNotSimulable, err)
		}
		sp = plan.Space()
	}
	dim := sp.Total()
	stripes := trajectoryStripes(shots, dim)
	workers := spec.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > stripes {
		workers = stripes
	}
	batch := trajectoryBatch(spec.ShotBatch, shots, stripes, workers, dim)

	outcomes := make([]int, shots)
	noiseless := spec.Noise.IsZero()
	// One contiguous block for all stripe accumulators: workers write
	// disjoint stripe rows, and the in-order merge walks it linearly.
	partialBlock := make([]float64, stripes*dim)
	partials := make([][]float64, stripes)
	for s := range partials {
		partials[s] = partialBlock[s*dim : (s+1)*dim]
	}
	errs := make([]error, workers)
	// Shot 0 lives in stripe 0, which exactly one worker claims, so this
	// is written by one goroutine and read only after Wait.
	var first *state.Vec
	// nextStripe is the shared claim counter: Add(1)-1 hands out each
	// stripe index exactly once.
	var nextStripe atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ws *circuit.Workspace
			var bw *circuit.BatchWorkspace
			var rngs []*rand.Rand
			if !b.Interpreted {
				if batch > 1 {
					var err error
					bw, err = plan.NewBatchWorkspace(batch)
					if err != nil {
						errs[w] = fmt.Errorf("%w: %v", ErrNotSimulable, err)
						return
					}
					rngs = make([]*rand.Rand, bw.Width())
					for i := range rngs {
						rngs[i] = rand.New(new(qmath.ShotSource))
					}
				} else {
					var err error
					ws, err = plan.NewWorkspace()
					if err != nil {
						errs[w] = fmt.Errorf("%w: %v", ErrNotSimulable, err)
						return
					}
				}
			}
			var sampler qmath.CDFSampler
			// One reseeded rng per worker replaces one allocation per
			// shot; Seed restarts the per-shot stream in O(1).
			rng := rand.New(new(qmath.ShotSource))
			// A stripe's accumulator row, shots and rng streams are fixed
			// by its index, so which worker claims it changes no byte.
			for s := int(nextStripe.Add(1) - 1); s < stripes; s = int(nextStripe.Add(1) - 1) {
				local := partials[s]
				if bw != nil {
					// Batched: group the stripe's shots bw.Width() at a
					// time. Vector v carries trajectory t0+v*stripes on its
					// own (seed, t)-derived stream, and probabilities
					// accumulate in ascending-t order after the batch, so
					// results match the single-shot loop bit-for-bit.
					// Cancellation latency grows to one batch.
					kb := bw.Width()
					for t0 := s; t0 < shots; t0 += stripes * kb {
						if err := ctx.Err(); err != nil {
							errs[w] = err
							return
						}
						nb := 0
						for t := t0; t < shots && nb < kb; t += stripes {
							rngs[nb].Seed(mixSeed(spec.Seed, uint64(t)))
							nb++
						}
						if err := plan.RunShotBatch(bw, rngs[:nb]); err != nil {
							errs[w] = fmt.Errorf("trajectory batch at %d (stride %d): %w: %v", t0, stripes, ErrNotSimulable, err)
							return
						}
						for v, t := 0, t0; v < nb; v, t = v+1, t+stripes {
							probs := bw.BornProbabilities(v)
							if t == 0 && noiseless {
								sv, err := bw.CloneState(v)
								if err != nil {
									errs[w] = fmt.Errorf("%w: %v", ErrNotSimulable, err)
									return
								}
								first = sv
							}
							for i, p := range probs {
								local[i] += p
							}
							sampler.Load(probs)
							outcomes[t] = sampler.Draw(rngs[v])
						}
					}
					continue
				}
				for t := s; t < shots; t += stripes {
					// Polling between trajectories bounds the cancellation
					// latency to one shot rather than the whole batch.
					if err := ctx.Err(); err != nil {
						errs[w] = err
						return
					}
					rng.Seed(mixSeed(spec.Seed, uint64(t)))
					var probs []float64
					if b.Interpreted {
						v, err := c.RunTrajectory(rng, spec.Noise)
						if err != nil {
							errs[w] = fmt.Errorf("trajectory %d: %w: %v", t, ErrNotSimulable, err)
							return
						}
						probs = v.Probabilities()
						if t == 0 && noiseless {
							first = v
						}
					} else {
						v, err := plan.RunShot(ws, rng)
						if err != nil {
							errs[w] = fmt.Errorf("trajectory %d: %w: %v", t, ErrNotSimulable, err)
							return
						}
						probs = ws.BornProbabilities()
						// The workspace state is recycled next shot, so a
						// snapshot must clone — only worth it when the
						// noiseless Execution will actually expose it.
						if t == 0 && noiseless {
							first = v.Clone()
						}
					}
					for i, p := range probs {
						local[i] += p
					}
					sampler.Load(probs)
					outcomes[t] = sampler.Draw(rng)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Execution{}, err
		}
	}

	// Merging in stripe order keeps the floating-point sum independent
	// of which worker computed which stripe.
	mean := make([]float64, dim)
	for _, local := range partials {
		for i, p := range local {
			mean[i] += p
		}
	}
	for i := range mean {
		mean[i] /= float64(shots)
	}
	out := Execution{MeanProbs: mean}
	if noiseless {
		out.State = first
	}
	if spec.Shots > 0 {
		out.Counts = countsFromIndices(sp, outcomes)
	}
	return out, nil
}

// countsFromIndices builds a histogram from sampled flat basis indices.
// It sorts idxs in place and renders one key per distinct outcome, so
// key rendering scales with the outcomes seen rather than the shots
// taken, and the map is sized to its final population. The entries are
// exactly those of one Counts.Add per shot.
func countsFromIndices(sp *hilbert.Space, idxs []int) Counts {
	slices.Sort(idxs)
	distinct := 0
	for i, k := range idxs {
		if i == 0 || k != idxs[i-1] {
			distinct++
		}
	}
	counts := make(Counts, distinct)
	dec := hilbert.NewDigitDecoder(sp)
	for i := 0; i < len(idxs); {
		j := i + 1
		for j < len(idxs) && idxs[j] == idxs[i] {
			j++
		}
		counts[CountsKey(dec.Decode(idxs[i]))] = j - i
		i = j
	}
	return counts
}
