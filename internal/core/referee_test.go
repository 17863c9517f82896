package core

import (
	"fmt"
	"math"
	"testing"

	"quditkit/internal/circuit"
	"quditkit/internal/gates"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
)

// refereeShots is the trajectory count of every referee case.
const refereeShots = 16384

// assertMeanProbsNearExact is the trajectory engine's statistical
// referee. It shares no code with plannedChannel.applyStochastic: the
// exact probabilities come from the density-matrix engine's Kraus sums.
// MeanProbs[i] averages refereeShots per-shot Born probabilities in
// [0,1] whose mean is exact[i], so each has variance at most
// exact[i](1-exact[i]); the bound allows five standard errors of that
// plus a floor for round-off.
func assertMeanProbsNearExact(t *testing.T, name string, mean, exact []float64) {
	t.Helper()
	if len(mean) != len(exact) {
		t.Fatalf("%s: %d trajectory probabilities vs %d exact", name, len(mean), len(exact))
	}
	for i, p := range exact {
		bound := 5*math.Sqrt(p*(1-p)/refereeShots) + 1e-9
		if d := math.Abs(mean[i] - p); d > bound {
			t.Errorf("%s: basis %d: trajectory mean %.6f vs exact %.6f (|diff| %.2e > bound %.2e)",
				name, i, mean[i], p, d, bound)
		}
	}
}

// TestTrajectoryMeanProbsMatchDensity holds the trajectory backend to
// the density-matrix backend: the tracked GHZ job under the device
// model, and a damping-only and a depolarizing-only register at rates
// high enough that a wrong branch probability moves the mean.
func TestTrajectoryMeanProbsMatchDensity(t *testing.T) {
	t.Parallel()
	t.Run("ghz/device", func(t *testing.T) {
		t.Parallel()
		proc, err := NewCompactProcessor(2, 2, 9)
		if err != nil {
			t.Fatal(err)
		}
		model, err := proc.NoiseModelForDim(3)
		if err != nil {
			t.Fatal(err)
		}
		c := ghzQutritCircuit(t, 4)
		common := []RunOption{WithShots(refereeShots), WithSeed(7), WithNoise(model)}
		tr, err := proc.SubmitOne(c, append(common, WithBackend(Trajectory))...)
		if err != nil {
			t.Fatal(err)
		}
		dm, err := proc.SubmitOne(c, append(common, WithBackend(DensityMatrix))...)
		if err != nil {
			t.Fatal(err)
		}
		assertMeanProbsNearExact(t, "ghz/device", tr.meanProbs, dm.Density.Probabilities())
	})
	for _, m := range []struct {
		name  string
		model noise.Model
		steps []refereeStep
	}{
		// Damping acts on populated excited levels: spread population.
		{"damping", noise.Model{Damping: 0.15}, spreadSteps},
		// Depolarizing moves population off a peaked distribution.
		{"depolarizing", noise.Model{Depol1: 0.1, Depol2: 0.2}, peakedSteps},
	} {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			c := refereeCircuit(t, m.steps)
			dm, err := DensityMatrixBackend{}.Execute(c, ExecSpec{Noise: m.model})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := TrajectoryBackend{}.Execute(c, ExecSpec{Noise: m.model, Shots: refereeShots, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			assertMeanProbsNearExact(t, m.name, tr.MeanProbs, dm.Density.Probabilities())
		})
	}
}

type refereeStep struct {
	g       gates.Gate
	targets []int
}

// spreadSteps spreads population over every level of the register.
var spreadSteps = []refereeStep{
	{gates.DFT(3), []int{0}},
	{gates.Givens(3, 1, 2, 0.9, 0.3), []int{0}},
	{gates.CSUM(3, 3), []int{0, 1}},
	{gates.DFT(2), []int{2}},
	{gates.XPow(3, 2), []int{1}},
	{gates.DFT(3), []int{1}},
	{gates.CZ(3, 3), []int{1, 0}},
}

// peakedSteps only permute basis states, so the noiseless outcome is
// one basis state.
var peakedSteps = []refereeStep{
	{gates.X(3), []int{0}},
	{gates.CSUM(3, 3), []int{0, 1}},
	{gates.X(2), []int{2}},
	{gates.XPow(3, 2), []int{1}},
	{gates.CSUM(3, 3), []int{1, 0}},
	{gates.X(3), []int{0}},
}

// refereeCircuit builds steps on a mixed-radix register.
func refereeCircuit(t *testing.T, steps []refereeStep) *circuit.Circuit {
	t.Helper()
	c, err := circuit.New(hilbert.Dims{3, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range steps {
		if err := c.Append(s.g, s.targets...); err != nil {
			t.Fatal(fmt.Errorf("%s: %w", s.g.Name, err))
		}
	}
	return c
}
