package difftest

import (
	"fmt"
	"math"
	"testing"

	"quditkit/internal/circuit"
	"quditkit/internal/core"
	"quditkit/internal/gates"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
)

// gateNoise is the noisy model of the grid: depolarizing, damping, and
// dephasing after every gate, so every compiled op carries channels and
// every shot samples each of them.
var gateNoise = noise.Model{Depol1: 0.05, Depol2: 0.10, Damping: 0.02, Dephasing: 0.03}

// idleNoise adds idle decoherence, which only the density path applies:
// it charges idle channels to untouched wires once per ASAP moment, and
// it keeps the plan unfused (every moment becomes a barrier). The
// trajectory paths ignore idle rates, so the grid runs this model
// through Exact only.
var idleNoise = noise.Model{
	Depol1: 0.05, Depol2: 0.10, Damping: 0.02, Dephasing: 0.03,
	IdleDamping: 0.01, IdleDephasing: 0.02,
}

// TestDifferentialGrid is the acceptance grid: every (circuit, noise
// model, seed) case runs each shot through the interpreter, the unfused
// plan and the fused plan, runs the trajectory backend at worker counts
// {1,4,8} (Run), and compares the pure and density paths with their
// interpreted references (Exact). Every comparison must be bit-exact.
// The interpreted density reference clones ρ for each Kraus operator,
// so the 64-dimension register runs Exact at seed 1 only, which keeps
// the race-detector run short.
func TestDifferentialGrid(t *testing.T) {
	t.Parallel()
	registers := []hilbert.Dims{
		{3, 3, 3},    // the paper's qutrit register
		{2, 3, 4},    // mixed radix: strides differ per wire
		{4, 4, 2, 2}, // two fusable same-dim pairs plus qubit tail
	}
	models := []struct {
		name         string
		model        noise.Model
		trajectories bool
	}{
		{"noiseless", noise.Model{}, true},
		{"gatenoise", gateNoise, true},
		{"idlenoise", idleNoise, false},
	}
	cfg := DefaultConfig()
	for ri, dims := range registers {
		for _, m := range models {
			for seed := int64(1); seed <= 3; seed++ {
				c, err := RandomCircuit(dims, 24, seed*101+int64(ri))
				if err != nil {
					t.Fatalf("RandomCircuit(%v, seed %d): %v", dims, seed, err)
				}
				cs := Case{
					Name:    fmt.Sprintf("dims=%v/%s/seed=%d", dims, m.name, seed),
					Circuit: c,
					Noise:   m.model,
					Seed:    seed,
					Shots:   96,
				}
				exact := dims.Total() <= 27 || seed == 1
				t.Run(cs.Name, func(t *testing.T) {
					t.Parallel()
					if m.trajectories {
						if err := Run(cs, cfg); err != nil {
							t.Fatal(err)
						}
					}
					if exact {
						if err := Exact(cs); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// TestDifferentialGHZ pins the tracked workload from the paper — the
// 3-qutrit GHZ preparation under depolarizing noise — through the same
// grid, so the exact circuit the benchmarks and the service exercise
// is also the one proven byte-identical.
func TestDifferentialGHZ(t *testing.T) {
	t.Parallel()
	c, err := circuit.New(hilbert.Dims{3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		g       gates.Gate
		targets []int
	}{
		{gates.DFT(3), []int{0}},
		{gates.CSUM(3, 3), []int{0, 1}},
		{gates.CSUM(3, 3), []int{0, 2}},
	} {
		if err := c.Append(step.g, step.targets...); err != nil {
			t.Fatal(err)
		}
	}
	model := noise.Model{Depol1: 0.02}
	if err := Exact(Case{Name: "ghz", Circuit: c, Noise: model}); err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		cs := Case{
			Name:    fmt.Sprintf("ghz/seed=%d", seed),
			Circuit: c,
			Noise:   model,
			Seed:    seed,
			Shots:   256,
		}
		t.Run(cs.Name, func(t *testing.T) {
			t.Parallel()
			if err := Run(cs, DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCompareDetectsDivergence proves the comparator has teeth: a
// single flipped mantissa bit in MeanProbs, a count moved between two
// outcomes, and a perturbed marginal must each fail.
func TestCompareDetectsDivergence(t *testing.T) {
	t.Parallel()
	c, err := RandomCircuit(hilbert.Dims{2, 3}, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	cs := Case{Name: "teeth", Circuit: c, Seed: 7, Shots: 32}
	ref, err := core.TrajectoryBackend{}.Execute(c, core.ExecSpec{Shots: 32, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := Compare(cs, ref, ref, "a", "b"); err != nil {
		t.Fatalf("identical executions compared unequal: %v", err)
	}

	flipped := ref
	flipped.MeanProbs = append([]float64(nil), ref.MeanProbs...)
	flipped.MeanProbs[0] = math.Float64frombits(math.Float64bits(flipped.MeanProbs[0]) ^ 1)
	if err := Compare(cs, ref, flipped, "ref", "bitflip"); err == nil {
		t.Fatal("single-ULP MeanProbs perturbation not detected")
	}

	moved := ref
	moved.Counts = make(core.Counts, len(ref.Counts))
	for k, v := range ref.Counts {
		moved.Counts[k] = v
	}
	var first string
	for k := range moved.Counts {
		first = k
		break
	}
	moved.Counts[first]++
	if err := Compare(cs, ref, moved, "ref", "moved"); err == nil {
		t.Fatal("counts divergence not detected")
	}
}

// TestMarginalsSumToWireDistributions checks the marginal reduction on
// a hand-computable case: a product state |1> ⊗ uniform.
func TestMarginalsSumToWireDistributions(t *testing.T) {
	t.Parallel()
	dims := hilbert.Dims{2, 3}
	probs := []float64{0, 0, 0, 1 / 3.0, 1 / 3.0, 1 / 3.0}
	marg, err := Marginals(dims, probs)
	if err != nil {
		t.Fatal(err)
	}
	if marg[0][0] != 0 || marg[0][1] != 1 {
		t.Fatalf("wire 0 marginal = %v, want [0 1]", marg[0])
	}
	for g := 0; g < 3; g++ {
		if math.Abs(marg[1][g]-1/3.0) > 1e-15 {
			t.Fatalf("wire 1 marginal = %v, want uniform", marg[1])
		}
	}
}
