package circuit

import (
	"math"
	"math/rand"
	"testing"

	"quditkit/internal/gates"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
)

// batchKernelZoo builds a circuit whose compiled plan exercises every
// applyBatch code path: fused diagonal stages, fused dense stages, and
// the single-op diagonal, monomial, controlled, dense, and two-qudit
// monomial kernels.
func batchKernelZoo(t *testing.T) *Circuit {
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

// TestRunShotBatchMatchesRunShot is the package-local half of the
// byte-identity contract: for every batch width, vector v of a
// RunShotBatch call must be bit-equal — amplitudes, Born
// probabilities, and cloned state — to a RunShot call consuming the
// same rng stream. The full cross-path grid lives in difftest; this
// test pins the engine itself so a batch kernel regression fails here,
// next to the code.
func TestRunShotBatchMatchesRunShot(t *testing.T) {
	// Per-gate noise is a fusion barrier, so the two models split the
	// engine's surface: the noiseless plan runs the fused stage kernels,
	// the noisy plan runs the single-op kernels plus the batched
	// channel sampler.
	for _, tc := range []struct {
		name      string
		model     noise.Model
		wantFused int
	}{
		{"noiseless-fused", noise.Model{}, 2},
		{"gate-noise-barrier", noise.Model{Depol1: 0.05, Depol2: 0.08, Damping: 0.04, Dephasing: 0.03}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) { testBatchMatchesSingle(t, tc.model, tc.wantFused) })
	}
}

func testBatchMatchesSingle(t *testing.T, model noise.Model, wantFused int) {
	c := batchKernelZoo(t)
	p, err := c.Compile(model)
	if err != nil {
		t.Fatal(err)
	}
	if p.OpsFused() != wantFused {
		t.Fatalf("zoo circuit fused %d ops, want %d", p.OpsFused(), wantFused)
	}
	ws, err := p.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 8} {
		bw, err := p.NewBatchWorkspace(n)
		if err != nil {
			t.Fatal(err)
		}
		rngs := make([]*rand.Rand, n)
		for v := range rngs {
			rngs[v] = rand.New(rand.NewSource(int64(1000*n + v)))
		}
		if err := p.RunShotBatch(bw, rngs); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			ref, err := p.RunShot(ws, rand.New(rand.NewSource(int64(1000*n+v))))
			if err != nil {
				t.Fatal(err)
			}
			want := ref.RawAmplitudes()
			got := bw.Amps(v)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d vector %d amp %d: batched %v != single-shot %v",
						n, v, i, got[i], want[i])
				}
			}
			wantP := ws.BornProbabilities()
			gotP := bw.BornProbabilities(v)
			for i := range wantP {
				if math.Float64bits(gotP[i]) != math.Float64bits(wantP[i]) {
					t.Fatalf("n=%d vector %d prob %d: batched %v != single-shot %v",
						n, v, i, gotP[i], wantP[i])
				}
			}
			clone, err := bw.CloneState(v)
			if err != nil {
				t.Fatal(err)
			}
			ca := clone.RawAmplitudes()
			for i := range want {
				if ca[i] != want[i] {
					t.Fatalf("n=%d vector %d: CloneState amp %d diverges", n, v, i)
				}
			}
			// The clone must be a snapshot, not an arena alias.
			ca[0] += 1
			if got[0] == ca[0] {
				t.Fatalf("n=%d vector %d: CloneState aliases the arena", n, v)
			}
		}
	}
}

// TestBatchWorkspaceClampsWidth pins the arena memory budget: widths
// below 1 round up, and requests whose arena would exceed MaxBatchAmps
// amplitudes shrink to the largest width that fits.
func TestBatchWorkspaceClampsWidth(t *testing.T) {
	c := mustCircuit(t, hilbert.Dims{3, 3}, step{gates.DFT(3), []int{0}})
	p, err := c.Compile(noise.Model{})
	if err != nil {
		t.Fatal(err)
	}
	bw, err := p.NewBatchWorkspace(0)
	if err != nil {
		t.Fatal(err)
	}
	if bw.Width() != 1 {
		t.Fatalf("width 0 clamped to %d, want 1", bw.Width())
	}
	dim := p.Space().Total()
	bw, err = p.NewBatchWorkspace(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if want := MaxBatchAmps / dim; bw.Width() != want {
		t.Fatalf("oversized request clamped to %d, want %d (budget %d / dim %d)",
			bw.Width(), want, MaxBatchAmps, dim)
	}
}

// TestRunShotBatchRejectsBadGroupSize: a shot group must have between
// 1 and Width() streams — silently truncating or growing the arena
// would desynchronize shot-index seed derivation.
func TestRunShotBatchRejectsBadGroupSize(t *testing.T) {
	c := mustCircuit(t, hilbert.Dims{3}, step{gates.DFT(3), []int{0}})
	p, err := c.Compile(noise.Model{Depol1: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	bw, err := p.NewBatchWorkspace(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RunShotBatch(bw, nil); err == nil {
		t.Error("empty rng group accepted")
	}
	over := make([]*rand.Rand, bw.Width()+1)
	for i := range over {
		over[i] = rand.New(rand.NewSource(int64(i)))
	}
	if err := p.RunShotBatch(bw, over); err == nil {
		t.Error("over-width rng group accepted")
	}
}

// TestPlanAccessors covers the introspection surface the service and
// stats layers read from a compiled plan.
func TestPlanAccessors(t *testing.T) {
	c := batchKernelZoo(t)
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
