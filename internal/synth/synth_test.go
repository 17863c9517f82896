package synth

import (
	"math"
	"math/rand"
	"testing"

	"quditkit/internal/cavity"
	"quditkit/internal/gates"
	"quditkit/internal/noise"
	"quditkit/internal/qmath"
)

func TestGivensDecomposeReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, d := range []int{2, 3, 4, 6} {
		u := qmath.RandomUnitary(rng, d)
		dec, err := GivensDecompose(u)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		rec := dec.Reconstruct()
		if !rec.ApproxEqual(u, 1e-7) {
			t.Errorf("d=%d: reconstruction error %v", d, rec.Sub(u).FrobeniusNorm())
		}
		// Adjacent-level constraint.
		for _, op := range dec.Ops {
			if op.J-op.I != 1 {
				t.Errorf("d=%d: non-adjacent rotation (%d,%d)", d, op.I, op.J)
			}
		}
	}
}

func TestTwoLevelDecomposeReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, d := range []int{2, 4, 8} {
		u := qmath.RandomUnitary(rng, d)
		dec, err := TwoLevelDecompose(u)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !dec.Reconstruct().ApproxEqual(u, 1e-7) {
			t.Errorf("d=%d: reconstruction failed", d)
		}
		maxOps := d * (d - 1) / 2
		if dec.CountOps() > maxOps {
			t.Errorf("d=%d: %d ops exceeds bound %d", d, dec.CountOps(), maxOps)
		}
	}
}

func TestDecomposeDiagonalNeedsNoRotations(t *testing.T) {
	u := qmath.Diag([]complex128{1, 1i, -1})
	dec, err := GivensDecompose(u)
	if err != nil {
		t.Fatal(err)
	}
	if dec.CountOps() != 0 {
		t.Errorf("diagonal target used %d rotations", dec.CountOps())
	}
}

func TestDecomposeRejectsBadInput(t *testing.T) {
	if _, err := GivensDecompose(qmath.NewMatrix(2, 3)); err == nil {
		t.Error("rectangular accepted")
	}
	m := qmath.Identity(3).Scale(2)
	if _, err := GivensDecompose(m); err == nil {
		t.Error("non-unitary accepted")
	}
}

func TestSNAPDisplacementOnSNAPTarget(t *testing.T) {
	// A pure SNAP target is inside the ansatz family: the optimizer must
	// reach near-unit fidelity quickly.
	rng := rand.New(rand.NewSource(7))
	target := gates.SNAP([]float64{0.3, -0.5, 1.1, 2.0}).Matrix
	res, err := SynthesizeSNAPDisplacement(rng, target, SNAPDisplacementOptions{
		Blocks: 2, MaxSweeps: 30, Restarts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fidelity < 0.999 {
		t.Errorf("SNAP target fidelity = %v", res.Fidelity)
	}
}

func TestSNAPDisplacementGivensTarget(t *testing.T) {
	// A single Givens rotation between adjacent Fock levels — the
	// workhorse of constructive synthesis — should compile to high
	// fidelity with a modest block budget.
	rng := rand.New(rand.NewSource(11))
	d := 3
	target := gates.Givens(d, 0, 1, math.Pi/5, 0.4).Matrix
	res, err := SynthesizeSNAPDisplacement(rng, target, SNAPDisplacementOptions{
		Blocks: 4, MaxSweeps: 60, Restarts: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fidelity < 0.99 {
		t.Errorf("Givens target fidelity = %v (evals %d)", res.Fidelity, res.Evaluations)
	}
}

func TestSNAPDisplacementSequenceMatchesFidelity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := 3
	target := gates.SNAP([]float64{0.1, 0.2, 0.3}).Matrix
	res, err := SynthesizeSNAPDisplacement(rng, target, SNAPDisplacementOptions{
		Blocks: 2, MaxSweeps: 20, Restarts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the unitary from the reported sequence and recompute the
	// subspace fidelity; it must match the reported value.
	v := qmath.Identity(res.WorkDim)
	for _, g := range res.Sequence() {
		v = g.Matrix.Mul(v)
	}
	var tr complex128
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			x := v.At(i, j)
			tr += complex(real(x), -imag(x)) * target.At(i, j)
		}
	}
	f := (real(tr)*real(tr) + imag(tr)*imag(tr)) / float64(d*d)
	if math.Abs(f-res.Fidelity) > 1e-9 {
		t.Errorf("sequence fidelity %v != reported %v", f, res.Fidelity)
	}
}

func TestSNAPDisplacementValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := SynthesizeSNAPDisplacement(rng, qmath.NewMatrix(2, 3), SNAPDisplacementOptions{}); err == nil {
		t.Error("rectangular accepted")
	}
	if _, err := SynthesizeSNAPDisplacement(rng, qmath.Identity(3).Scale(2), SNAPDisplacementOptions{}); err == nil {
		t.Error("non-unitary accepted")
	}
	if _, err := SynthesizeSNAPDisplacement(rng, qmath.Identity(4), SNAPDisplacementOptions{WorkDim: 2}); err == nil {
		t.Error("work dim below target accepted")
	}
}

func TestPlanCSUM(t *testing.T) {
	module := cavity.ForecastModule()
	for _, d := range []int{3, 4, 10} {
		for _, route := range []cavity.CSUMRoute{cavity.RouteCrossKerr, cavity.RouteExchange} {
			plan, err := PlanCSUM(module, d, route, true)
			if err != nil {
				t.Fatalf("d=%d route=%v: %v", d, route, err)
			}
			if plan.DurationSec <= 0 {
				t.Errorf("d=%d: non-positive duration", d)
			}
			if plan.FidelityEstimate <= 0 || plan.FidelityEstimate > 1 {
				t.Errorf("d=%d: fidelity %v out of range", d, plan.FidelityEstimate)
			}
			if plan.PrimitiveCounts["SNAP"] == 0 {
				t.Errorf("d=%d: no SNAP primitives counted", d)
			}
		}
	}
	// Adjacent-cavity CSUM must cost more than co-located.
	co, err := PlanCSUM(module, 4, cavity.RouteCrossKerr, true)
	if err != nil {
		t.Fatal(err)
	}
	adj, err := PlanCSUM(module, 4, cavity.RouteCrossKerr, false)
	if err != nil {
		t.Fatal(err)
	}
	if adj.DurationSec <= co.DurationSec {
		t.Error("adjacent-cavity CSUM not slower than co-located")
	}
	if adj.FidelityEstimate >= co.FidelityEstimate {
		t.Error("adjacent-cavity CSUM not lower fidelity")
	}
	if _, err := PlanCSUM(module, 1, cavity.RouteCrossKerr, true); err == nil {
		t.Error("d=1 accepted")
	}
}

func TestCSUMViaFourierIsCSUM(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		c, err := CSUMViaFourier(d)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := c.Compile(noise.Model{})
		if err != nil {
			t.Fatal(err)
		}
		ws, err := plan.NewWorkspace()
		if err != nil {
			t.Fatal(err)
		}
		// Check action on all basis states.
		for a := 0; a < d; a++ {
			for b := 0; b < d; b++ {
				v, err := stateWithDigits(d, a, b)
				if err != nil {
					t.Fatal(err)
				}
				if err := plan.RunPureOn(ws, v); err != nil {
					t.Fatal(err)
				}
				wantIdx := a*d + (a+b)%d
				probs := v.Probabilities()
				if math.Abs(probs[wantIdx]-1) > 1e-9 {
					t.Errorf("d=%d: CSUMviaFourier |%d,%d> wrong", d, a, b)
				}
			}
		}
	}
}

func TestQubitCompileCost(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// 2-qubit random unitary.
	u2 := qmath.RandomUnitary(rng, 4)
	rep2, err := QubitCompileCost(u2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Qubits != 2 || rep2.CNOTs == 0 {
		t.Errorf("2-qubit report = %+v", rep2)
	}
	// 4-qubit random unitary costs much more.
	u4 := qmath.RandomUnitary(rng, 16)
	rep4, err := QubitCompileCost(u4)
	if err != nil {
		t.Fatal(err)
	}
	if rep4.CNOTs <= rep2.CNOTs*4 {
		t.Errorf("4-qubit cost %d does not dominate 2-qubit cost %d", rep4.CNOTs, rep2.CNOTs)
	}
	// Identity is free.
	repI, err := QubitCompileCost(qmath.Identity(8))
	if err != nil {
		t.Fatal(err)
	}
	if repI.CNOTs != 0 {
		t.Errorf("identity cost = %d", repI.CNOTs)
	}
	// Non-power-of-two rejected.
	if _, err := QubitCompileCost(qmath.Identity(6)); err == nil {
		t.Error("non-qubit dimension accepted")
	}
}

func TestCnotsForMultiControlled(t *testing.T) {
	cases := map[int]int{0: 0, 1: 2, 2: 6, 3: 12, 5: 30}
	for k, want := range cases {
		if got := cnotsForMultiControlled(k); got != want {
			t.Errorf("k=%d: %d, want %d", k, got, want)
		}
	}
}
