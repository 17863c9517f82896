package circuit

import (
	"math"
	"math/rand"
	"testing"

	"quditkit/internal/density"
	"quditkit/internal/gates"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
	"quditkit/internal/qmath"
	"quditkit/internal/state"
)

// TestKernelClassification: Compile must recognize the structural gate
// classes the executor specializes on.
func TestKernelClassification(t *testing.T) {
	c := mustNew(t, hilbert.Dims{3, 3, 3})
	ctrlGivens := gates.ControlledU(3, 2, gates.Givens(3, 0, 1, math.Pi/5, 0.3).Matrix)
	c.MustAppend(gates.Z(3), 0)                  // diagonal
	c.MustAppend(gates.X(3), 1)                  // permutation
	c.MustAppend(gates.CSUM(3, 3), 0, 1)         // permutation (two-qudit)
	c.MustAppend(ctrlGivens, 0, 2)               // controlled dense blocks
	c.MustAppend(gates.DFT(3), 2)                // dense
	c.MustAppend(gates.CZ(3, 3), 1, 2)           // diagonal (two-qudit)
	c.MustAppend(gates.Givens(3, 1, 2, 1, 0), 0) // small dense

	p, err := c.Compile(noise.Model{})
	if err != nil {
		t.Fatal(err)
	}
	want := []KernelKind{
		KernelDiagonal, KernelMonomial, KernelMonomial, KernelControlled,
		KernelDense, KernelDiagonal, KernelDense,
	}
	got := p.Kernels()
	for i, k := range want {
		if got[i] != k {
			t.Errorf("op %d: kernel %v, want %v", i, got[i], k)
		}
	}
	// The controlled gate's identity blocks must be marked skippable.
	blocks := p.ops[3].blocks
	if len(blocks) != 3 {
		t.Fatalf("controlled op has %d blocks", len(blocks))
	}
	if !blocks[0].skip || !blocks[1].skip || blocks[2].skip {
		t.Errorf("identity-block skip flags wrong: %v %v %v",
			blocks[0].skip, blocks[1].skip, blocks[2].skip)
	}
}

// TestKernelsMatchApplyMatrixOracle: every specialized kernel must
// reproduce the generic dense state.Vec.Apply bit-for-bit on the
// probability level (amplitudes may differ only in the sign of zero,
// which compares equal).
func TestKernelsMatchApplyMatrixOracle(t *testing.T) {
	dims := hilbert.Dims{3, 2, 3, 4}
	cases := []struct {
		name    string
		gate    gates.Gate
		targets []int
	}{
		{"diagonal", gates.Z(3), []int{0}},
		{"monomial", gates.X(4), []int{3}},
		{"monomial2q", gates.CSUM(3, 3), []int{0, 2}},
		{"diagonal2q", gates.CZ(3, 3), []int{2, 0}},
		{"controlled", gates.ControlledU(3, 1, gates.DFT(3).Matrix), []int{0, 2}},
		{"dense2", gates.DFT(2), []int{1}},
		{"dense3", gates.Givens(3, 0, 2, 0.9, 0.4), []int{2}},
		{"dense4", gates.DFT(4), []int{3}},
		{"dense6", mustGate(t, "rand6", []int{2, 3},
			qmath.RandomUnitary(rand.New(rand.NewSource(3)), 6)), []int{1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			c := mustNew(t, dims)
			c.MustAppend(tc.gate, tc.targets...)
			p, err := c.Compile(noise.Model{})
			if err != nil {
				t.Fatal(err)
			}
			ws, err := p.NewWorkspace()
			if err != nil {
				t.Fatal(err)
			}
			amps := qmath.RandomState(rng, dims.Total())
			oracle, err := state.FromAmplitudes(dims, amps)
			if err != nil {
				t.Fatal(err)
			}
			copy(ws.amps, oracle.RawAmplitudes())
			p.ops[0].apply(ws.amps, ws)
			if err := oracle.Apply(tc.gate, tc.targets...); err != nil {
				t.Fatal(err)
			}
			want := oracle.RawAmplitudes()
			for i, a := range ws.amps {
				if a != want[i] {
					t.Fatalf("amplitude %d: kernel %v vs oracle %v", i, a, want[i])
				}
			}
		})
	}
}

func mustGate(t *testing.T, name string, dims []int, m *qmath.Matrix) gates.Gate {
	t.Helper()
	g, err := gates.FromMatrix(name, dims, m)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// noisyMixedCircuit builds a circuit exercising every kernel class on a
// mixed-radix register.
func noisyMixedCircuit(t *testing.T) *Circuit {
	t.Helper()
	c := mustNew(t, hilbert.Dims{3, 3, 2})
	c.MustAppend(gates.DFT(3), 0)
	c.MustAppend(gates.CSUM(3, 3), 0, 1)
	c.MustAppend(gates.Z(3), 1)
	c.MustAppend(gates.DFT(2), 2)
	c.MustAppend(gates.Givens(3, 0, 1, 0.7, 0.2), 0)
	c.MustAppend(gates.CSUM(3, 3), 1, 0)
	return c
}

// TestRunShotMatchesInterpretedTrajectory: for identical rng streams the
// compiled plan and the interpreted RunTrajectory must produce
// byte-identical Born probabilities and consume the same number of
// random draws.
func TestRunShotMatchesInterpretedTrajectory(t *testing.T) {
	c := noisyMixedCircuit(t)
	model := noise.Model{Depol1: 0.02, Depol2: 0.08, Damping: 0.05, Dephasing: 0.03}
	p, err := c.Compile(model)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := p.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 25; seed++ {
		rngI := rand.New(rand.NewSource(seed))
		vI, err := c.RunTrajectory(rngI, model)
		if err != nil {
			t.Fatal(err)
		}
		rngC := rand.New(rand.NewSource(seed))
		vC, err := p.RunShot(ws, rngC)
		if err != nil {
			t.Fatal(err)
		}
		pI, pC := vI.Probabilities(), vC.Probabilities()
		for i := range pI {
			if pI[i] != pC[i] {
				t.Fatalf("seed %d basis %d: interpreted %v vs compiled %v",
					seed, i, pI[i], pC[i])
			}
		}
		if a, b := rngI.Float64(), rngC.Float64(); a != b {
			t.Fatalf("seed %d: rng streams diverged (%v vs %v): draw counts differ", seed, a, b)
		}
	}
}

// TestPlanRunDensityMatchesInterpreted: the plan's density execution
// (resolved channels) must equal the interpreted per-op path exactly,
// with and without idle noise.
func TestPlanRunDensityMatchesInterpreted(t *testing.T) {
	for _, model := range []noise.Model{
		{Depol1: 0.01, Depol2: 0.05, Damping: 0.02, Dephasing: 0.02},
		{Damping: 0.03, IdleDamping: 0.04, IdleDephasing: 0.02},
	} {
		c := noisyMixedCircuit(t)
		p, err := c.Compile(model)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.RunDensity()
		if err != nil {
			t.Fatal(err)
		}
		want, err := density.NewZero(c.Dims())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunDensityOn(want, model); err != nil {
			t.Fatal(err)
		}
		g, w := got.Matrix(), want.Matrix()
		for i, x := range g.Data {
			if x != w.Data[i] {
				t.Fatalf("model %+v: density entry %d: plan %v vs interpreted %v", model, i, x, w.Data[i])
			}
		}
	}
}

// TestRunPureMatchesRun: compiled noiseless execution equals the
// interpreted Run on every probability bit.
func TestRunPureMatchesRun(t *testing.T) {
	c := noisyMixedCircuit(t)
	p, err := c.Compile(noise.Model{})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := p.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	got := p.RunPure(ws)
	want, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	pg, pw := got.Probabilities(), want.Probabilities()
	for i := range pg {
		if pg[i] != pw[i] {
			t.Fatalf("basis %d: compiled %v vs interpreted %v", i, pg[i], pw[i])
		}
	}
}

// TestRunShotAllocationFree: a compiled trajectory shot must do zero
// heap allocations — the whole point of the workspace design.
func TestRunShotAllocationFree(t *testing.T) {
	c := noisyMixedCircuit(t)
	model := noise.Model{Depol1: 0.02, Depol2: 0.08, Damping: 0.05, Dephasing: 0.03}
	p, err := c.Compile(model)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := p.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var shot int64
	allocs := testing.AllocsPerRun(200, func() {
		shot++
		rng.Seed(shot)
		if _, err := p.RunShot(ws, rng); err != nil {
			t.Fatal(err)
		}
		ws.BornProbabilities()
	})
	if allocs > 0 {
		t.Errorf("compiled trajectory shot allocates %.1f times, want 0", allocs)
	}
}

// TestCompileRejectsBadMatrix: compile-time validation must catch a
// matrix whose shape disagrees with the declared dims.
func TestCompileRejectsBadMatrix(t *testing.T) {
	c := mustNew(t, hilbert.Dims{3})
	bad := gates.Gate{Name: "bad", Dims: []int{3}, Matrix: qmath.Identity(2)}
	c.ops = append(c.ops, Op{Gate: bad, Targets: []int{0}})
	if _, err := c.Compile(noise.Model{}); err == nil {
		t.Error("mismatched gate matrix accepted by Compile")
	}
}

// kernelZoo builds a circuit whose compiled plan exercises every
// kernel: fused diagonal stages, fused dense stages, and the single-op
// diagonal, monomial, controlled, dense, and two-qudit monomial
// kernels.
func kernelZoo(t *testing.T) *Circuit {
	t.Helper()
	d := 3
	return mustCircuit(t, hilbert.Dims{d, d},
		step{gates.Z(d), []int{0}},
		step{gates.SNAP([]float64{0.2, 0.5, 0.9}), []int{0}}, // fuses with Z: diagonal stages
		step{gates.X(d), []int{1}},
		step{gates.DFT(d), []int{1}}, // fuses with X: dense stages
		step{gates.X(d), []int{0}},   // lone monomial
		step{gates.ControlledU(d, 2, gates.Givens(d, 0, 1, 0.4, 0.9).Matrix), []int{0, 1}}, // lone controlled
		step{gates.Z(d), []int{1}},          // lone diagonal
		step{gates.DFT(d), []int{0}},        // lone dense
		step{gates.CSUM(d, d), []int{0, 1}}, // lone two-qudit monomial
	)
}

// TestPlanAccessors covers the introspection surface the service and
// stats layers read from a compiled plan.
func TestPlanAccessors(t *testing.T) {
	c := kernelZoo(t)
	if c.NumWires() != 2 {
		t.Fatalf("NumWires = %d, want 2", c.NumWires())
	}
	model := noise.Model{Depol1: 0.01}
	p, err := c.Compile(model)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != c.Len() {
		t.Fatalf("Plan.Len = %d, want %d", p.Len(), c.Len())
	}
	if got := p.Dims(); !got.Equal(c.Dims()) {
		t.Fatalf("Plan.Dims = %v, want %v", got, c.Dims())
	}
	if p.Space().Total() != 9 {
		t.Fatalf("Space().Total() = %d, want 9", p.Space().Total())
	}
	if p.Model() != model {
		t.Fatalf("Model() = %+v, want %+v", p.Model(), model)
	}
	for kind, want := range map[KernelKind]string{
		KernelDiagonal:   "diagonal",
		KernelMonomial:   "monomial",
		KernelControlled: "controlled",
		KernelDense:      "dense",
	} {
		if kind.String() != want {
			t.Errorf("KernelKind(%d).String() = %q, want %q", kind, kind.String(), want)
		}
	}
	ws, err := p.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.RunPure(ws); got != ws.State() {
		t.Fatal("RunPure result does not alias Workspace.State")
	}
}
