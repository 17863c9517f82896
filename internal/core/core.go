// Package core is the public façade of quditkit: it ties the device
// model, compiler, simulators, and noise models into a Processor that
// compiles logical qudit circuits onto the forecast multi-cavity machine
// and executes them through pluggable backends (statevector, density
// matrix, Monte-Carlo trajectories) via Submit, and hosts the experiment
// registry that regenerates every table and figure of the reproduction
// (see DESIGN.md and EXPERIMENTS.md).
package core

import (
	"errors"
	"fmt"
	"math/rand"

	"quditkit/internal/arch"
	"quditkit/internal/circuit"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
	"quditkit/internal/transpile"
)

// ErrNotSimulable is returned when a routed circuit exceeds the
// simulator's capacity (resource estimation via Plan remains available).
var ErrNotSimulable = errors.New("core: circuit too large to simulate")

// Processor couples the forecast device with a physics-derived noise
// model and a base random seed. All randomness (placement annealing,
// shot sampling, trajectory unraveling) is derived per job from the base
// seed and the job's own identity, so batch results are reproducible and
// independent of submission order.
type Processor struct {
	Device   arch.Device
	baseSeed int64
}

// NewProcessor builds a processor over an explicit device.
func NewProcessor(dev arch.Device, seed int64) (*Processor, error) {
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	return &Processor{Device: dev, baseSeed: seed}, nil
}

// NewForecastProcessor builds the machine the paper projects: n linearly
// connected forecast cavities.
func NewForecastProcessor(nCavities int, seed int64) (*Processor, error) {
	return NewProcessor(arch.ForecastDevice(nCavities), seed)
}

// NewCompactProcessor builds a processor over a forecast device trimmed
// to modesPerCavity modes per cavity — the configuration used when the
// routed physical register must stay simulable.
func NewCompactProcessor(nCavities, modesPerCavity int, seed int64) (*Processor, error) {
	return NewProcessor(arch.ForecastDeviceTrimmed(nCavities, modesPerCavity), seed)
}

// NoiseModelForDim derives the per-gate error model for qudits of
// dimension d from the device's physical parameters: photon loss over
// each gate duration plus a small depolarizing floor for control
// errors. It shares the transpiler's derivation (one source of truth),
// evaluated against the first module's own coherence times with no
// idle rates — the historical model the experiment tables are pinned
// to; the transpile.LevelNoise annotation uses the stricter worst-case
// transpile.DeviceNoiseModel instead.
func (p *Processor) NoiseModelForDim(d int) (noise.Model, error) {
	module := p.Device.Cavities[0]
	return transpile.ModuleNoiseModel(module, d, module.Modes[0].T1Sec, module.Modes[0].T2Sec)
}

// JobError reports which job of a Submit batch failed, wrapping the
// underlying cause for errors.Is/As. Submit aborts at the first
// failure, so batch drivers can use Index to keep the prefix of
// completed Results and resume after the failing job instead of
// re-executing the whole batch.
type JobError struct {
	// Index is the position of the failing job in the submitted batch.
	Index int
	// Err is the underlying execution or compilation error.
	Err error
}

// Error implements error.
func (e *JobError) Error() string { return fmt.Sprintf("job %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// Submit compiles and executes a batch of jobs, one Result per job in
// order. Each job gets its own derived random stream (see WithSeed), its
// own noise-aware placement, and the backend selected by its options;
// this is the single execution seam of quditkit — every circuit-running
// code path goes through it. On failure Submit stops at the first
// failing job and returns the Results completed so far together with a
// *JobError naming the failing index.
func (p *Processor) Submit(jobs ...Job) ([]Result, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("core: Submit requires at least one job")
	}
	results := make([]Result, 0, len(jobs))
	for i, job := range jobs {
		res, err := p.runJob(job)
		if err != nil {
			return results, &JobError{Index: i, Err: err}
		}
		results = append(results, res)
	}
	return results, nil
}

// SubmitOne is Submit for a single circuit, building the job inline.
func (p *Processor) SubmitOne(c *circuit.Circuit, opts ...RunOption) (Result, error) {
	results, err := p.Submit(NewJob(c, opts...))
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

func (p *Processor) runJob(job Job) (Result, error) {
	if job.Circuit == nil {
		return Result{}, fmt.Errorf("core: job has no circuit")
	}
	cfg := resolveOptions(job.opts)
	if cfg.ctx != nil {
		if err := cfg.ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	seed := cfg.seed
	if !cfg.seedSet {
		seed = p.jobSeed(job.Circuit)
	}

	lowered, pipe, err := p.transpileWith(cfg, seed, job.Circuit)
	if err != nil {
		return Result{}, err
	}
	phys, mapping, report := lowered.Physical, lowered.Mapping, lowered.Report

	// An explicit WithNoise always wins; otherwise a LevelNoise pipeline
	// supplies the device-derived model.
	model := cfg.noise
	if !cfg.noiseSet && lowered.Noise != nil {
		model = *lowered.Noise
	}

	backend, err := BackendFor(cfg.backend)
	if err != nil {
		return Result{}, err
	}
	exec, err := backend.Execute(phys, ExecSpec{
		Ctx:         cfg.ctx,
		Noise:       model,
		Shots:       cfg.shots,
		Seed:        mixSeed(seed, streamSampling),
		Workers:     cfg.workers,
		TranspileFP: pipe.Fingerprint(),
	})
	if err != nil {
		return Result{}, fmt.Errorf("%s backend: %w", cfg.backend, err)
	}

	physSpace, err := hilbert.NewSpace(phys.Dims())
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Backend:        cfg.backend,
		Seed:           seed,
		Shots:          cfg.shots,
		State:          exec.State,
		Density:        exec.Density,
		PhysicalCounts: exec.Counts,
		Mapping:        mapping,
		Report:         report,
		Noise:          model,
		Transpile:      cfg.level,
		meanProbs:      exec.MeanProbs,
		physSpace:      physSpace,
		logicalWires:   job.Circuit.NumWires(),
	}
	if exec.Counts != nil {
		res.Counts, err = projectCounts(exec.Counts, report.FinalLayout)
		if err != nil {
			return Result{}, err
		}
	}
	return res, nil
}

// transpileWith runs the job's transpile pipeline: the target device is
// the processor's own unless WithDevice overrides it, the pass set is
// selected by WithTranspile, and the placement annealing draws from the
// job seed's mapping stream — the same derivation Submit has always
// used, so default-level lowering is bit-identical to the historical
// place-and-route path.
func (p *Processor) transpileWith(cfg runConfig, seed int64, logical *circuit.Circuit) (*transpile.Result, *transpile.Pipeline, error) {
	dev := p.Device
	if cfg.device != nil {
		dev = *cfg.device
	}
	pipe, err := transpile.New(dev, cfg.level)
	if err != nil {
		return nil, nil, err
	}
	res, err := pipe.Run(p.mappingRng(seed), logical)
	if err != nil {
		return nil, nil, err
	}
	return res, pipe, nil
}

// Transpile lowers a logical circuit through the same pipeline a
// submitted job would use — device, level, and seed resolved from the
// options identically — without executing it. It is the inspection
// seam behind `quditc transpile`: the physical circuit, placement,
// route report, and (at transpile.LevelNoise) derived noise model come
// back exactly as Submit would compile them.
func (p *Processor) Transpile(logical *circuit.Circuit, opts ...RunOption) (*transpile.Result, error) {
	if logical == nil {
		return nil, fmt.Errorf("core: Transpile requires a circuit")
	}
	cfg := resolveOptions(opts)
	seed := cfg.seed
	if !cfg.seedSet {
		seed = p.jobSeed(logical)
	}
	res, _, err := p.transpileWith(cfg, seed, logical)
	return res, err
}

// jobSeed is the derived default seed of a job: reproducible, and
// independent of where the job sits in a batch.
func (p *Processor) jobSeed(logical *circuit.Circuit) int64 {
	return mixSeed(p.baseSeed, circuitFingerprint(logical))
}

// mappingRng returns the placement-annealing stream of a job seed —
// the single rule shared by Submit and Plan, so a planned mapping
// always matches the one compiled for the same seed.
func (p *Processor) mappingRng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(mixSeed(seed, streamMapping)))
}

// mapFor anneals the noise-aware placement for a logical circuit.
func (p *Processor) mapFor(rng *rand.Rand, logical *circuit.Circuit) (arch.Mapping, error) {
	edges := arch.CircuitEdges(logical)
	mapping, err := arch.MapNoiseAware(rng, p.Device, logical.NumWires(), edges, arch.MappingOptions{})
	if err != nil {
		return arch.Mapping{}, fmt.Errorf("mapping: %w", err)
	}
	return mapping, nil
}

// PlanReport is the outcome of Processor.Plan: the annealed placement
// and the routing report, with no circuit materialization or execution.
type PlanReport struct {
	// Mapping is the noise-aware placement used.
	Mapping arch.Mapping
	// Report carries swap counts, duration, and the coherence budget.
	Report *arch.RouteReport
}

// Plan places and routes for resource estimation only, with no circuit
// materialization — usable at any device size. It draws from the same
// per-circuit derived stream as Submit's default seeding, so a planned
// mapping matches what an unseeded submission of the same circuit
// would compile; a submission pinned with WithSeed anneals from the
// explicit seed's stream instead and may place differently.
func (p *Processor) Plan(logical *circuit.Circuit) (*PlanReport, error) {
	mapping, err := p.mapFor(p.mappingRng(p.jobSeed(logical)), logical)
	if err != nil {
		return nil, err
	}
	rep, err := arch.RoutePlan(p.Device, logical, mapping)
	if err != nil {
		return nil, fmt.Errorf("routing: %w", err)
	}
	return &PlanReport{Mapping: mapping, Report: rep}, nil
}
