package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"quditkit/internal/arch"
	"quditkit/internal/circuit"
	"quditkit/internal/core"
	"quditkit/internal/gates"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
	"quditkit/internal/transpile"
)

// CircuitSpec is the JSON wire form of a logical circuit: the register
// dimensions and an ordered gate list.
type CircuitSpec struct {
	// Dims lists the local dimension of each logical wire.
	Dims []int `json:"dims"`
	// Ops is the gate sequence, applied in order.
	Ops []OpSpec `json:"ops"`
}

// OpSpec is one gate application in a CircuitSpec. Gate selects the
// constructor; the parameter fields are read per gate as documented on
// the constants below and ignored otherwise.
type OpSpec struct {
	// Gate is the lowercase gate name (see GateNames).
	Gate string `json:"gate"`
	// Targets are the logical wires the gate acts on, in order.
	Targets []int `json:"targets"`
	// K is the shift power of "xpow" and the second level of "givens".
	K int `json:"k,omitempty"`
	// Level is the phased level of "phase" and the first level of
	// "givens".
	Level int `json:"level,omitempty"`
	// Theta is the rotation angle of "givens" and the hopping angle of
	// "hop".
	Theta float64 `json:"theta,omitempty"`
	// Phi is the phase of "phase" and "givens" and the penalty angle of
	// "eqphase".
	Phi float64 `json:"phi,omitempty"`
	// Beta is the mixing angle of "rotor" and "fourier".
	Beta float64 `json:"beta,omitempty"`
	// Phases are the per-level phases of "snap" (length = wire dim).
	Phases []float64 `json:"phases,omitempty"`
}

// GateNames lists the wire-format gate vocabulary in stable order:
// single-qudit "x", "xpow", "z", "dft", "phase", "givens", "snap",
// "rotor", "fourier" and two-qudit "csum", "csuminv", "cz", "eqphase",
// "hop".
var GateNames = []string{
	"x", "xpow", "z", "dft", "phase", "givens", "snap", "rotor", "fourier",
	"csum", "csuminv", "cz", "eqphase", "hop",
}

// Wire-format admission limits. BuildCircuit materializes gate
// unitaries (d² or (d₁d₂)² entries each) before any simulability
// check can run, so untrusted specs must be bounded here or a single
// request could allocate the daemon to death. The limits sit far above
// anything the simulators can execute anyway.
const (
	// MaxWireDim caps the local dimension of one wire.
	MaxWireDim = 64
	// MaxWires caps the logical register width.
	MaxWires = 64
	// MaxOps caps the gate count of one circuit.
	MaxOps = 65536
	// MaxGateDim caps the product of one gate's target dimensions; a
	// gate materializes a (product)² unitary, so this bounds the
	// largest single allocation (256² entries = 1 MiB).
	MaxGateDim = 256
	// MaxCircuitMatrixEntries caps the summed unitary entries across a
	// whole circuit (~128 MiB of complex128 at the bound) — the
	// per-request allocation budget.
	MaxCircuitMatrixEntries = 1 << 23
	// MaxShots caps the per-job shot budget: shots drive both an
	// outcome buffer allocation and, on the trajectory backend, one
	// full simulation each.
	MaxShots = 1 << 20
	// MaxWorkers caps the requested trajectory pool width.
	MaxWorkers = 256
	// MaxShotBatch caps the deprecated shot_batch field. The engine
	// ignores the field, but the bound stays so every request rejected
	// before is still rejected.
	MaxShotBatch = 4096
	// MaxDeviceCavities caps the chain length of a wire-requested
	// device (see DeviceSpec); forecast modules carry at most 4 modes,
	// so this also bounds the physical register width at 32 modes.
	MaxDeviceCavities = 8
	// MaxRoutedLog2Dim caps the joint Hilbert dimension of the routed
	// physical register a wire-requested device implies: routing
	// rebuilds the circuit on one wire per device mode at the logical
	// dimension, and the statevector workspace allocates the full 2^22
	// * 16-byte amplitude block per worker, so an unbounded device
	// stanza would be an allocation amplifier.
	MaxRoutedLog2Dim = 22
)

// BuildCircuit materializes a CircuitSpec into a logical circuit,
// validating dimensions, targets, gate parameters, and the admission
// limits above.
func BuildCircuit(spec CircuitSpec) (*circuit.Circuit, error) {
	if len(spec.Dims) == 0 {
		return nil, fmt.Errorf("serve: circuit has no wires")
	}
	if len(spec.Dims) > MaxWires {
		return nil, fmt.Errorf("serve: %d wires exceeds the limit of %d", len(spec.Dims), MaxWires)
	}
	if len(spec.Ops) > MaxOps {
		return nil, fmt.Errorf("serve: %d ops exceeds the limit of %d", len(spec.Ops), MaxOps)
	}
	for i, d := range spec.Dims {
		if d < 2 {
			return nil, fmt.Errorf("serve: wire %d has dimension %d, want >= 2", i, d)
		}
		if d > MaxWireDim {
			return nil, fmt.Errorf("serve: wire %d dimension %d exceeds the limit of %d", i, d, MaxWireDim)
		}
	}
	c, err := circuit.New(hilbert.Dims(spec.Dims))
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	var totalEntries int64
	// Repeated ops share one built gate: constructors are pure functions
	// of the reuse key, and nothing downstream writes to a gate matrix,
	// so a shared gate is indistinguishable from a fresh build.
	built := make(map[gateKey]gates.Gate)
	for i, op := range spec.Ops {
		// Charge the allocation budget before constructing anything:
		// gate unitaries are materialized dense, ahead of any
		// simulability check. Invalid targets fall through to
		// buildGate for a precise error.
		prod, targetsOK := 1, true
		for _, t := range op.Targets {
			if t < 0 || t >= len(spec.Dims) {
				targetsOK = false
				break
			}
			prod *= spec.Dims[t]
		}
		if targetsOK {
			if prod > MaxGateDim {
				return nil, fmt.Errorf("serve: op %d (%s): gate dimension %d exceeds the limit of %d",
					i, op.Gate, prod, MaxGateDim)
			}
			totalEntries += int64(prod) * int64(prod)
			if totalEntries > MaxCircuitMatrixEntries {
				return nil, fmt.Errorf("serve: circuit exceeds the %d-entry gate-matrix budget at op %d",
					int64(MaxCircuitMatrixEntries), i)
			}
		}
		key, keyed := reuseKey(spec.Dims, op)
		g, ok := built[key]
		if !keyed || !ok {
			var err error
			if g, err = buildGate(spec.Dims, op); err != nil {
				return nil, fmt.Errorf("serve: op %d: %w", i, err)
			}
			if keyed {
				built[key] = g
			}
		}
		if err := c.Append(g, op.Targets...); err != nil {
			return nil, fmt.Errorf("serve: op %d (%s): %w", i, op.Gate, err)
		}
	}
	return c, nil
}

// gateKey identifies one distinct gate build: the lowercased name, the
// target dimensions and every other OpSpec field, floats by their bits.
// Two ops with equal keys get equal gates from buildGate.
type gateKey struct {
	name             string
	nTargets         int
	targetDims       [2]int
	k, level         int
	theta, phi, beta uint64
	phases           string
}

// reuseKey returns op's gateKey, or false when op cannot share a build:
// a target outside the register or more targets than any gate takes,
// both of which buildGate rejects.
func reuseKey(dims []int, op OpSpec) (gateKey, bool) {
	key := gateKey{
		name:     strings.ToLower(op.Gate),
		nTargets: len(op.Targets),
		k:        op.K,
		level:    op.Level,
		theta:    math.Float64bits(op.Theta),
		phi:      math.Float64bits(op.Phi),
		beta:     math.Float64bits(op.Beta),
	}
	if len(op.Targets) > len(key.targetDims) {
		return gateKey{}, false
	}
	for i, t := range op.Targets {
		if t < 0 || t >= len(dims) {
			return gateKey{}, false
		}
		key.targetDims[i] = dims[t]
	}
	if len(op.Phases) > 0 {
		buf := make([]byte, 8*len(op.Phases))
		for i, p := range op.Phases {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(p))
		}
		key.phases = string(buf)
	}
	return key, true
}

// gateSpec is one gate-vocabulary entry: its arity and constructor.
// Keeping both in a single table means a new gate cannot be half-added
// with a mismatched target count. d is the first target's dimension,
// d2 the second's (zero for single-qudit gates).
type gateSpec struct {
	arity int
	build func(d, d2 int, op OpSpec) (gates.Gate, error)
}

var gateTable = map[string]gateSpec{
	"x": {1, func(d, _ int, _ OpSpec) (gates.Gate, error) { return gates.X(d), nil }},
	"xpow": {1, func(d, _ int, op OpSpec) (gates.Gate, error) {
		return gates.XPow(d, op.K), nil
	}},
	"z":   {1, func(d, _ int, _ OpSpec) (gates.Gate, error) { return gates.Z(d), nil }},
	"dft": {1, func(d, _ int, _ OpSpec) (gates.Gate, error) { return gates.DFT(d), nil }},
	"phase": {1, func(d, _ int, op OpSpec) (gates.Gate, error) {
		if op.Level < 0 || op.Level >= d {
			return gates.Gate{}, fmt.Errorf("phase level %d outside dimension %d", op.Level, d)
		}
		return gates.Phase(d, op.Level, op.Phi), nil
	}},
	"givens": {1, func(d, _ int, op OpSpec) (gates.Gate, error) {
		if op.Level < 0 || op.Level >= d || op.K < 0 || op.K >= d || op.Level == op.K {
			return gates.Gate{}, fmt.Errorf("givens levels (%d,%d) invalid for dimension %d",
				op.Level, op.K, d)
		}
		return gates.Givens(d, op.Level, op.K, op.Theta, op.Phi), nil
	}},
	"snap": {1, func(d, _ int, op OpSpec) (gates.Gate, error) {
		if len(op.Phases) != d {
			return gates.Gate{}, fmt.Errorf("snap wants %d phases, got %d", d, len(op.Phases))
		}
		return gates.SNAP(op.Phases), nil
	}},
	"rotor": {1, func(d, _ int, op OpSpec) (gates.Gate, error) {
		return gates.RotorMixer(d, op.Beta), nil
	}},
	"fourier": {1, func(d, _ int, op OpSpec) (gates.Gate, error) {
		return gates.FourierMixer(d, op.Beta), nil
	}},
	"csum":    {2, func(d, d2 int, _ OpSpec) (gates.Gate, error) { return gates.CSUM(d, d2), nil }},
	"csuminv": {2, func(d, d2 int, _ OpSpec) (gates.Gate, error) { return gates.CSUMInv(d, d2), nil }},
	"cz":      {2, func(d, d2 int, _ OpSpec) (gates.Gate, error) { return gates.CZ(d, d2), nil }},
	"eqphase": {2, func(d, d2 int, op OpSpec) (gates.Gate, error) {
		if d != d2 {
			return gates.Gate{}, fmt.Errorf("eqphase requires equal dimensions, got %d and %d", d, d2)
		}
		return gates.EqualityPhase(d, op.Phi), nil
	}},
	"hop": {2, func(d, d2 int, op OpSpec) (gates.Gate, error) {
		if d != d2 {
			return gates.Gate{}, fmt.Errorf("hop requires equal dimensions, got %d and %d", d, d2)
		}
		return gates.Hop(d, op.Theta), nil
	}},
}

// buildGate resolves one OpSpec against the register dimensions.
func buildGate(dims []int, op OpSpec) (gates.Gate, error) {
	name := strings.ToLower(op.Gate)
	spec, ok := gateTable[name]
	if !ok {
		return gates.Gate{}, fmt.Errorf("unknown gate %q (known: %s)",
			op.Gate, strings.Join(GateNames, ", "))
	}
	if len(op.Targets) != spec.arity {
		return gates.Gate{}, fmt.Errorf("gate %q wants %d target(s), got %d",
			op.Gate, spec.arity, len(op.Targets))
	}
	for _, t := range op.Targets {
		if t < 0 || t >= len(dims) {
			return gates.Gate{}, fmt.Errorf("target %d outside register of %d wires",
				t, len(dims))
		}
	}
	d := dims[op.Targets[0]]
	d2 := 0
	if spec.arity == 2 {
		d2 = dims[op.Targets[1]]
	}
	return spec.build(d, d2, op)
}

// NoiseSpec is the JSON wire form of a per-gate noise model.
type NoiseSpec struct {
	Depol1        float64 `json:"depol1,omitempty"`
	Depol2        float64 `json:"depol2,omitempty"`
	Damping       float64 `json:"damping,omitempty"`
	Dephasing     float64 `json:"dephasing,omitempty"`
	IdleDamping   float64 `json:"idle_damping,omitempty"`
	IdleDephasing float64 `json:"idle_dephasing,omitempty"`
}

// model validates and converts the spec to the core noise model.
// Rates are probabilities: anything outside [0,1] would drive the
// Kraus decompositions into NaN territory and poison the result
// cache, so it is rejected at the wire.
func (n NoiseSpec) model() (noise.Model, error) {
	for _, r := range []struct {
		name string
		rate float64
	}{
		{"depol1", n.Depol1}, {"depol2", n.Depol2},
		{"damping", n.Damping}, {"dephasing", n.Dephasing},
		{"idle_damping", n.IdleDamping}, {"idle_dephasing", n.IdleDephasing},
	} {
		if r.rate < 0 || r.rate > 1 || r.rate != r.rate {
			return noise.Model{}, fmt.Errorf("serve: noise rate %s = %v outside [0,1]", r.name, r.rate)
		}
	}
	return noise.Model{
		Depol1:        n.Depol1,
		Depol2:        n.Depol2,
		Damping:       n.Damping,
		Dephasing:     n.Dephasing,
		IdleDamping:   n.IdleDamping,
		IdleDephasing: n.IdleDephasing,
	}, nil
}

// DeviceSpec is the JSON wire form of a transpile target: a forecast
// cavity chain the job's circuit is lowered onto instead of the
// daemon's default device, plus the transpile level to lower through.
type DeviceSpec struct {
	// Cavities is the chain length (required, 1..MaxDeviceCavities).
	Cavities int `json:"cavities"`
	// Modes trims each cavity to this many modes; zero keeps the full
	// forecast module (4 modes).
	Modes int `json:"modes,omitempty"`
	// Level is the transpile level: 0 place+route (default), 1 +native
	// decomposition, 2 +device-derived noise annotation.
	Level int `json:"level,omitempty"`
}

// JobRequest is the body of POST /v1/jobs: the circuit plus the
// execution options, mirroring core's RunOptions one field per option.
type JobRequest struct {
	// Circuit is the logical circuit to compile and execute.
	Circuit CircuitSpec `json:"circuit"`
	// Device, when present, transpiles the job against this device
	// (core.WithDevice + core.WithTranspile) and the result carries the
	// route report against it.
	Device *DeviceSpec `json:"device,omitempty"`
	// Backend selects "statevector" (default), "density-matrix", or
	// "trajectory".
	Backend string `json:"backend,omitempty"`
	// Shots requests a sampled histogram (core.WithShots).
	Shots int `json:"shots,omitempty"`
	// Seed, when present, pins the job seed (core.WithSeed).
	Seed *int64 `json:"seed,omitempty"`
	// Workers widens the trajectory pool (core.WithWorkers); never
	// affects results or the cache key. Omitted, the service picks:
	// every core for a job alone on the node, else one worker.
	Workers int `json:"workers,omitempty"`
	// ShotBatch is deprecated and ignored: trajectory shots run one at
	// a time. It is still accepted up to MaxShotBatch, so clients that
	// send it keep working, and it never affected results or the cache
	// key.
	ShotBatch int `json:"shot_batch,omitempty"`
	// Noise attaches an explicit per-gate noise model.
	Noise *NoiseSpec `json:"noise,omitempty"`
	// DeriveNoiseDim, when positive, derives the device's physical
	// noise model for qudits of this dimension
	// (Processor.NoiseModelForDim) instead of an explicit Noise block.
	DeriveNoiseDim int `json:"derive_noise_dim,omitempty"`
}

// ParseBackend resolves a wire-format backend name, defaulting the
// empty string to Statevector.
func ParseBackend(name string) (core.BackendKind, error) {
	switch strings.ToLower(name) {
	case "", "statevector":
		return core.Statevector, nil
	case "density-matrix", "densitymatrix":
		return core.DensityMatrix, nil
	case "trajectory":
		return core.Trajectory, nil
	default:
		return 0, fmt.Errorf("serve: unknown backend %q (statevector, density-matrix, trajectory)", name)
	}
}

// Options resolves the request's execution options against the
// processor (needed when the noise model is device-derived).
func (r JobRequest) Options(proc *core.Processor) ([]core.RunOption, error) {
	kind, err := ParseBackend(r.Backend)
	if err != nil {
		return nil, err
	}
	opts := []core.RunOption{core.WithBackend(kind)}
	if r.Shots < 0 {
		return nil, fmt.Errorf("serve: negative shots %d", r.Shots)
	}
	if r.Shots > MaxShots {
		return nil, fmt.Errorf("serve: %d shots exceeds the limit of %d", r.Shots, MaxShots)
	}
	if r.Shots > 0 {
		opts = append(opts, core.WithShots(r.Shots))
	}
	if r.Seed != nil {
		opts = append(opts, core.WithSeed(*r.Seed))
	}
	if r.Workers > MaxWorkers {
		return nil, fmt.Errorf("serve: %d workers exceeds the limit of %d", r.Workers, MaxWorkers)
	}
	if r.Workers > 0 {
		opts = append(opts, core.WithWorkers(r.Workers))
	}
	if r.ShotBatch > MaxShotBatch {
		return nil, fmt.Errorf("serve: %d shot_batch exceeds the limit of %d", r.ShotBatch, MaxShotBatch)
	}
	if r.Noise != nil && r.DeriveNoiseDim > 0 {
		return nil, fmt.Errorf("serve: noise and derive_noise_dim are mutually exclusive")
	}
	// derive_noise_dim derives from the DAEMON's device; combining it
	// with a device stanza would degrade counts by one device's noise
	// while reporting another device's route costs — reject rather than
	// answer inconsistently. (An explicit "noise" block with a stanza
	// is fine: the caller is pinning rates on purpose, and core gives
	// an explicit model precedence over level-2 annotation.)
	if r.Device != nil && r.DeriveNoiseDim > 0 {
		return nil, fmt.Errorf("serve: derive_noise_dim and device are mutually exclusive; use device.level = 2 for device-derived noise")
	}
	if r.Noise != nil {
		model, err := r.Noise.model()
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithNoise(model))
	}
	if r.DeriveNoiseDim > 0 {
		model, err := proc.NoiseModelForDim(r.DeriveNoiseDim)
		if err != nil {
			return nil, fmt.Errorf("serve: deriving noise: %w", err)
		}
		opts = append(opts, core.WithNoise(model))
	}
	if r.Device != nil {
		devOpts, err := r.Device.options(r.Circuit)
		if err != nil {
			return nil, err
		}
		opts = append(opts, devOpts...)
	}
	return opts, nil
}

// options validates a device stanza against the admission limits and
// resolves it into the core run options.
func (d DeviceSpec) options(circ CircuitSpec) ([]core.RunOption, error) {
	if d.Cavities < 1 || d.Cavities > MaxDeviceCavities {
		return nil, fmt.Errorf("serve: device cavities %d outside [1,%d]", d.Cavities, MaxDeviceCavities)
	}
	if d.Modes < 0 {
		return nil, fmt.Errorf("serve: negative device modes %d", d.Modes)
	}
	level, err := transpile.ParseLevel(d.Level)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	dev := arch.ForecastDeviceTrimmed(d.Cavities, d.Modes)
	// Routing rebuilds the circuit on one wire per device mode at the
	// logical dimension; bound the joint dimension of that register
	// before anything is allocated.
	maxDim := 2
	for _, wd := range circ.Dims {
		if wd > maxDim {
			maxDim = wd
		}
	}
	if log2Dim := float64(dev.NumModes()) * math.Log2(float64(maxDim)); log2Dim > MaxRoutedLog2Dim {
		return nil, fmt.Errorf("serve: routed register of %d modes at dimension %d exceeds the 2^%d limit",
			dev.NumModes(), maxDim, MaxRoutedLog2Dim)
	}
	return []core.RunOption{core.WithDevice(dev), core.WithTranspile(level)}, nil
}

// ResultView is the JSON projection of a core.Result: the histogram
// and compilation report, without the raw state vectors (which grow
// with the Hilbert dimension and rarely belong on the wire).
type ResultView struct {
	// Backend is the backend that executed the job.
	Backend string `json:"backend"`
	// Seed is the effective job seed.
	Seed int64 `json:"seed"`
	// Shots is the number of recorded measurement shots.
	Shots int `json:"shots"`
	// Counts is the logical-register shot histogram ("0.2.1" keys).
	Counts map[string]int `json:"counts,omitempty"`
	// Mapping is the initial logical-to-mode placement.
	Mapping []int `json:"mapping,omitempty"`
	// FinalLayout is the post-routing logical-to-mode layout.
	FinalLayout []int `json:"final_layout,omitempty"`
	// SwapsInserted counts routing swaps.
	SwapsInserted int `json:"swaps_inserted"`
	// OneQuditGates and TwoQuditGates count the routed circuit's gates
	// by arity (swaps excluded).
	OneQuditGates int `json:"one_qudit_gates,omitempty"`
	TwoQuditGates int `json:"two_qudit_gates,omitempty"`
	// DepthBefore and DepthAfter are the ASAP depths of the logical and
	// routed circuits.
	DepthBefore int `json:"depth_before,omitempty"`
	DepthAfter  int `json:"depth_after,omitempty"`
	// DurationSec is the serial physical duration estimate.
	DurationSec float64 `json:"duration_sec"`
	// FidelityEstimate is the coherence-budget fidelity estimate.
	FidelityEstimate float64 `json:"fidelity_estimate"`
	// Transpile is the transpile level the circuit was lowered through
	// ("route", "native", "noise").
	Transpile string `json:"transpile,omitempty"`
	// Noise is the effective noise model the job executed under —
	// device-derived at transpile level 2 — omitted when noiseless.
	Noise *NoiseSpec `json:"noise,omitempty"`
}

// NewResultView projects a Result onto the wire format.
func NewResultView(res core.Result) ResultView {
	view := ResultView{
		Backend:   res.Backend.String(),
		Seed:      res.Seed,
		Shots:     res.Shots,
		Counts:    res.Counts,
		Mapping:   res.Mapping.LogicalToMode,
		Transpile: res.Transpile.String(),
	}
	if res.Report != nil {
		view.FinalLayout = res.Report.FinalLayout
		view.SwapsInserted = res.Report.SwapsInserted
		view.OneQuditGates = res.Report.OneQuditGates
		view.TwoQuditGates = res.Report.TwoQuditGates
		view.DepthBefore = res.Report.DepthBefore
		view.DepthAfter = res.Report.DepthAfter
		view.DurationSec = res.Report.DurationSec
		view.FidelityEstimate = res.Report.FidelityEstimate
	}
	view.Noise = NoiseSpecFrom(res.Noise)
	return view
}

// NoiseSpecFrom projects a noise model onto the wire form; a zero
// (noiseless) model projects to nil so it is omitted from responses.
func NoiseSpecFrom(m noise.Model) *NoiseSpec {
	if m.IsZero() {
		return nil
	}
	return &NoiseSpec{
		Depol1:        m.Depol1,
		Depol2:        m.Depol2,
		Damping:       m.Damping,
		Dephasing:     m.Dephasing,
		IdleDamping:   m.IdleDamping,
		IdleDephasing: m.IdleDephasing,
	}
}

// JobView is the JSON projection of one job's status, the body of
// POST /v1/jobs and GET /v1/jobs/{id} responses.
type JobView struct {
	// ID is the job identifier to poll.
	ID string `json:"id"`
	// State is the lifecycle state ("queued", "running", "done",
	// "failed", "cancelled").
	State string `json:"state"`
	// Cached reports whether the result was served from the cache.
	Cached bool `json:"cached"`
	// Error is the terminal error message of a failed job.
	Error string `json:"error,omitempty"`
	// Result is present once the job is done.
	Result *ResultView `json:"result,omitempty"`
}
