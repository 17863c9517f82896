package core

import (
	"fmt"

	"quditkit/internal/arch"
	"quditkit/internal/circuit"
	"quditkit/internal/density"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
	"quditkit/internal/state"
	"quditkit/internal/transpile"
)

// Job is one logical circuit plus the options governing its execution.
// Build jobs with NewJob and hand them to Processor.Submit in batches.
type Job struct {
	Circuit *circuit.Circuit
	opts    []RunOption
}

// NewJob pairs a logical circuit with its run options.
func NewJob(c *circuit.Circuit, opts ...RunOption) Job {
	return Job{Circuit: c, opts: opts}
}

// Result is the unified outcome of one submitted job: compilation
// artifacts (mapping and route report), the backend's exact output
// (state or density matrix, whichever the backend produces), and the
// shot histogram when shots were requested. Histograms and marginals are
// expressed on the LOGICAL register — Submit projects the routed
// physical register back through the post-routing layout.
type Result struct {
	// Backend is the kind that executed the job.
	Backend BackendKind
	// Seed is the effective job seed (explicit via WithSeed, or derived
	// from the processor base seed and the circuit fingerprint).
	Seed int64
	// Shots is the number of measurement shots recorded in Counts.
	Shots int
	// State is the final pure state of the routed physical circuit
	// (Statevector always; Trajectory at zero noise).
	State *state.Vec
	// Density is the final mixed state of the routed physical circuit
	// (DensityMatrix backend).
	Density *density.DM
	// Counts is the shot histogram over the logical register.
	Counts Counts
	// PhysicalCounts is the same histogram keyed by the full physical
	// register, for debugging placements.
	PhysicalCounts Counts
	// Mapping is the noise-aware initial placement used.
	Mapping arch.Mapping
	// Report carries swap counts, duration, the coherence budget, and the
	// final logical-to-mode layout after routing swaps.
	Report *arch.RouteReport
	// Noise is the effective noise model the job executed under: the
	// explicit WithNoise model, or the device-derived one when the job
	// transpiled at transpile.LevelNoise without an explicit model.
	Noise noise.Model
	// Transpile is the transpile level the job's circuit was lowered
	// through.
	Transpile transpile.Level

	// meanProbs is the trajectory-averaged physical basis distribution.
	meanProbs []float64
	// physSpace indexes the routed physical register.
	physSpace *hilbert.Space
	// logicalWires is the width of the submitted logical register.
	logicalWires int
}

// modeOf returns the physical mode hosting logical wire q after routing.
func (r *Result) modeOf(q int) (int, error) {
	if q < 0 || q >= r.logicalWires {
		return 0, fmt.Errorf("core: logical wire %d out of range [0,%d)", q, r.logicalWires)
	}
	if r.Report != nil && len(r.Report.FinalLayout) == r.logicalWires {
		return r.Report.FinalLayout[q], nil
	}
	if len(r.Mapping.LogicalToMode) == r.logicalWires {
		return r.Mapping.LogicalToMode[q], nil
	}
	return 0, fmt.Errorf("core: result has no layout information")
}

// Probabilities returns the basis distribution of the routed physical
// register: exact from the state or density matrix when available,
// otherwise the trajectory-averaged estimate.
func (r *Result) Probabilities() ([]float64, error) {
	switch {
	case r.State != nil:
		return r.State.Probabilities(), nil
	case r.Density != nil:
		return r.Density.Probabilities(), nil
	case r.meanProbs != nil:
		out := make([]float64, len(r.meanProbs))
		copy(out, r.meanProbs)
		return out, nil
	}
	return nil, fmt.Errorf("core: result carries no distribution")
}

// Marginal returns the outcome distribution of one LOGICAL wire,
// following the qudit through routing swaps.
func (r *Result) Marginal(q int) ([]float64, error) {
	mode, err := r.modeOf(q)
	if err != nil {
		return nil, err
	}
	switch {
	case r.State != nil:
		return r.State.WireProbabilities(mode), nil
	case r.Density != nil:
		return r.Density.WireProbabilities(mode), nil
	case r.meanProbs != nil && r.physSpace != nil:
		d := r.physSpace.Dim(mode)
		out := make([]float64, d)
		for idx, p := range r.meanProbs {
			if p != 0 {
				out[r.physSpace.Digit(idx, mode)] += p
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("core: result carries no distribution")
}

// projectCounts re-keys a physical-register histogram onto the logical
// register via the final layout.
func projectCounts(physical Counts, layout []int) (Counts, error) {
	logical := make(Counts, len(physical))
	for key, n := range physical {
		digits, err := ParseCountsKey(key)
		if err != nil {
			return nil, err
		}
		projected := make([]int, len(layout))
		for q, mode := range layout {
			if mode < 0 || mode >= len(digits) {
				return nil, fmt.Errorf("core: layout mode %d outside physical register of %d wires",
					mode, len(digits))
			}
			projected[q] = digits[mode]
		}
		logical[CountsKey(projected)] += n
	}
	return logical, nil
}
