package sqed

import (
	"math"
	"math/rand"
	"testing"

	"quditkit/internal/arch"
	"quditkit/internal/circuit"
	"quditkit/internal/noise"
	"quditkit/internal/qmath"
	"quditkit/internal/state"
)

// mustPlan compiles c noiselessly and returns the plan with a workspace.
func mustPlan(t *testing.T, c *circuit.Circuit) (*circuit.Plan, *circuit.Workspace) {
	t.Helper()
	plan, err := c.Compile(noise.Model{})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := plan.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	return plan, ws
}

func mustChain(t *testing.T, sites, ell int, g2, x float64) *Rotor {
	t.Helper()
	r, err := NewChain(sites, ell, g2, x, false)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewChainAndLadder(t *testing.T) {
	r := mustChain(t, 4, 1, 1.0, 0.5)
	if r.LocalDim() != 3 {
		t.Errorf("ell=1 dim = %d, want 3", r.LocalDim())
	}
	if len(r.Edges) != 3 {
		t.Errorf("open chain edges = %d, want 3", len(r.Edges))
	}
	p, err := NewChain(4, 1, 1, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Edges) != 4 {
		t.Errorf("periodic chain edges = %d, want 4", len(p.Edges))
	}
	lad, err := NewLadder(9, 2, 1, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if lad.NumSites != 18 {
		t.Errorf("ladder sites = %d", lad.NumSites)
	}
	// 9x2 grid: horizontal edges 8*2 = 16, vertical edges 9*1 = 9.
	if len(lad.Edges) != 25 {
		t.Errorf("ladder edges = %d, want 25", len(lad.Edges))
	}
	if _, err := NewChain(1, 1, 1, 1, false); err == nil {
		t.Error("single-site chain accepted")
	}
	if _, err := NewLadder(1, 1, 1, 1, 1); err == nil {
		t.Error("1x1 ladder accepted")
	}
}

func TestHamiltonianHermitianAndLimits(t *testing.T) {
	r := mustChain(t, 3, 1, 2.0, 0.7)
	h, err := r.Hamiltonian()
	if err != nil {
		t.Fatal(err)
	}
	if !h.IsHermitian(1e-10) {
		t.Error("Hamiltonian not Hermitian")
	}
	// x = 0 limit: purely diagonal, ground energy 0 (all m=0).
	r0 := mustChain(t, 3, 1, 2.0, 0)
	vals, err := r0.Spectrum()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]) > 1e-10 {
		t.Errorf("x=0 ground energy = %v, want 0", vals[0])
	}
	// First excitation: one site with m = ±1 costs g^2/2 = 1.
	if math.Abs(vals[1]-1.0) > 1e-10 {
		t.Errorf("x=0 gap = %v, want 1", vals[1]-vals[0])
	}
}

func TestStrongCouplingGapReducesWithHopping(t *testing.T) {
	// Turning on hopping renormalizes the gap downward at small x.
	g0 := mustChain(t, 3, 1, 2.0, 0.0)
	g1 := mustChain(t, 3, 1, 2.0, 0.2)
	gap0, err := g0.MassGapExact()
	if err != nil {
		t.Fatal(err)
	}
	gap1, err := g1.MassGapExact()
	if err != nil {
		t.Fatal(err)
	}
	if gap1 >= gap0 {
		t.Errorf("hopping did not lower the gap: %v -> %v", gap0, gap1)
	}
}

func TestTrotterConvergesToExact(t *testing.T) {
	r := mustChain(t, 3, 1, 1.0, 0.5)
	gs, err := r.GroundState()
	if err != nil {
		t.Fatal(err)
	}
	// Start from a product excitation to get nontrivial dynamics.
	v0, err := state.NewBasis(r.Dims(), []int{2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	_ = gs
	tTotal := 1.0
	exact, err := r.ExactEvolution(v0.Amplitudes(), tTotal)
	if err != nil {
		t.Fatal(err)
	}
	var prevErr float64
	for i, steps := range []int{4, 16, 64} {
		c, err := r.TrotterCircuit(tTotal/float64(steps), steps)
		if err != nil {
			t.Fatal(err)
		}
		v := v0.Clone()
		plan, ws := mustPlan(t, c)
		if err := plan.RunPureOn(ws, v); err != nil {
			t.Fatal(err)
		}
		ov := exact.Dot(v.Amplitudes())
		trotterErr := 1 - real(ov)*real(ov) - imag(ov)*imag(ov)
		if i > 0 && trotterErr > prevErr {
			t.Errorf("Trotter error did not decrease: %v -> %v", prevErr, trotterErr)
		}
		prevErr = trotterErr
	}
	if prevErr > 1e-3 {
		t.Errorf("64-step Trotter error = %v", prevErr)
	}
}

func TestQubitEncodingMatchesNative(t *testing.T) {
	// Noiseless evolution must agree between encodings on the logical
	// subspace.
	r := mustChain(t, 2, 1, 1.0, 0.4)
	dt, steps := 0.1, 5
	native, err := r.TrotterCircuit(dt, steps)
	if err != nil {
		t.Fatal(err)
	}
	qubit, err := r.QubitTrotterCircuit(dt, steps)
	if err != nil {
		t.Fatal(err)
	}
	planN, wsN := mustPlan(t, native)
	vN := planN.RunPure(wsN)
	planQ, wsQ := mustPlan(t, qubit)
	vQ := planQ.RunPure(wsQ)
	// Compare amplitudes state-by-state: native index (m0, m1) maps to
	// qubit index with each site in 2 qubits.
	d := r.LocalDim()
	nq := r.QubitsPerSite()
	full := 1 << nq
	spN := vN.Space()
	spQ := vQ.Space()
	for a := 0; a < d; a++ {
		for b := 0; b < d; b++ {
			idxN := spN.Index([]int{a, b})
			qDigits := make([]int, 2*nq)
			for i := 0; i < nq; i++ {
				qDigits[i] = (a >> (nq - 1 - i)) & 1
				qDigits[nq+i] = (b >> (nq - 1 - i)) & 1
			}
			idxQ := spQ.Index(qDigits)
			diff := vN.Amplitude(idxN) - vQ.Amplitude(idxQ)
			if math.Hypot(real(diff), imag(diff)) > 1e-9 {
				t.Errorf("amplitude mismatch at (%d,%d)", a, b)
			}
		}
	}
	_ = full
}

func TestGateChargeFactorsQubitExceedNative(t *testing.T) {
	r := mustChain(t, 2, 1, 1.0, 0.4)
	oneN, twoN, err := r.gateChargeFactors(EncodingQudit, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	oneQ, twoQ, err := r.gateChargeFactors(EncodingQubit, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if oneN != 1 || twoN != 1 {
		t.Errorf("native factors = %v, %v, want 1, 1", oneN, twoN)
	}
	// The qubit encoding's hop gate should cost at least several CNOT
	// applications per wire — the source of the 10-100x noise advantage.
	if twoQ < 5 {
		t.Errorf("qubit hop charge = %v, expected >= 5", twoQ)
	}
	if oneQ < 1 {
		t.Errorf("qubit electric charge = %v", oneQ)
	}
}

func TestRunEncodedNoisyZeroNoise(t *testing.T) {
	r := mustChain(t, 2, 1, 1.0, 0.4)
	for _, enc := range []Encoding{EncodingQudit, EncodingQubit} {
		inf, err := r.RunEncodedNoisy(enc, 0.1, 3, 0)
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		if math.Abs(inf) > 1e-8 {
			t.Errorf("%v: zero-noise infidelity = %v", enc, inf)
		}
	}
}

func TestEncodingNoiseAdvantage(t *testing.T) {
	// The headline claim of [11]: at matched physical error rate, the
	// native qudit encoding is far less damaged than the qubit encoding.
	r := mustChain(t, 2, 1, 1.0, 0.4)
	p := 1e-3
	infQudit, err := r.RunEncodedNoisy(EncodingQudit, 0.1, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	infQubit, err := r.RunEncodedNoisy(EncodingQubit, 0.1, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	if infQubit < 5*infQudit {
		t.Errorf("qubit infidelity %v not >> qudit %v", infQubit, infQudit)
	}
}

func TestNoiseThreshold(t *testing.T) {
	r := mustChain(t, 2, 1, 1.0, 0.4)
	rates := []float64{1e-4, 1e-3, 1e-2, 5e-2, 2e-1}
	thr, curve, err := r.NoiseThreshold(EncodingQudit, 0.1, 3, rates, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if thr <= 0 {
		t.Errorf("threshold = %v", thr)
	}
	if len(curve) != len(rates) {
		t.Errorf("curve has %d points", len(curve))
	}
	// Infidelity must be monotone increasing in the error rate.
	for i := 1; i < len(curve); i++ {
		if curve[i].Infidelity < curve[i-1].Infidelity-1e-9 {
			t.Errorf("infidelity not monotone at %d", i)
		}
	}
}

func TestMassGapQuench(t *testing.T) {
	r := mustChain(t, 3, 1, 1.2, 0.3)
	res, err := r.MassGapQuench(0.15, 128, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if res.GapExact <= 0 {
		t.Fatalf("exact gap = %v", res.GapExact)
	}
	relErr := math.Abs(res.GapMeasured-res.GapExact) / res.GapExact
	if relErr > 0.25 {
		t.Errorf("measured gap %v vs exact %v (rel err %v)", res.GapMeasured, res.GapExact, relErr)
	}
}

func TestEstimateResourcesLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// The Table I row-1 instance: 9x2 lattice, d = 4+ (ell f= 2 gives d=5;
	// use ell=2 to represent "d = 4+"), on the 10-cavity forecast device.
	lad, err := NewLadder(9, 2, 2, 1.0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	dev := arch.ForecastDevice(10)
	est, err := lad.EstimateResources(rng, dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	if est.Sites != 18 || est.LocalDim != 5 {
		t.Errorf("estimate shape: %+v", est)
	}
	if est.EntanglingOps != 2*25 {
		t.Errorf("entangling ops = %d, want 50", est.EntanglingOps)
	}
	if est.SNAPGates != 2*18 {
		t.Errorf("SNAP gates = %d, want 36", est.SNAPGates)
	}
	if est.DurationSec <= 0 || est.FidelityBudget <= 0 || est.FidelityBudget > 1 {
		t.Errorf("budget: dur=%v fid=%v", est.DurationSec, est.FidelityBudget)
	}
	if est.CSUMPlan == nil || est.CSUMPlan.Dim != 5 {
		t.Error("missing CSUM plan")
	}
}

func TestLzAndRaising(t *testing.T) {
	r := mustChain(t, 2, 1, 1, 1)
	lz := r.Lz()
	if real(lz.At(0, 0)) != -1 || real(lz.At(2, 2)) != 1 {
		t.Errorf("Lz diagonal wrong: %v", lz)
	}
	u := r.Raising()
	// U|0> = |1> in the shifted basis (index 0 is m=-1).
	v := u.MulVec(qmath.BasisVector(3, 0))
	if real(v[1]) != 1 {
		t.Errorf("raising wrong: %v", v)
	}
}

func TestNewCuboid(t *testing.T) {
	c, err := NewCuboid(2, 2, 2, 1, 1.0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSites != 8 {
		t.Errorf("sites = %d, want 8", c.NumSites)
	}
	// 2x2x2 grid: 4 edges per axis x 3 axes = 12.
	if len(c.Edges) != 12 {
		t.Errorf("edges = %d, want 12", len(c.Edges))
	}
	if _, err := NewCuboid(1, 1, 1, 1, 1, 1); err == nil {
		t.Error("single-site cuboid accepted")
	}
	// A degenerate cuboid (nz=1) is small enough for the dense
	// Hamiltonian; it must stay Hermitian.
	flat, err := NewCuboid(2, 2, 1, 1, 1.0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	h, err := flat.Hamiltonian()
	if err != nil {
		t.Fatal(err)
	}
	if !h.IsHermitian(1e-10) {
		t.Error("cuboid Hamiltonian not Hermitian")
	}
}

func TestCuboidRoutingNeedsSwaps(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c, err := NewCuboid(3, 2, 2, 1, 1.0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	dev := arch.ForecastDevice(10)
	est, err := c.EstimateResources(rng, dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Bonds != 20 {
		t.Errorf("3x2x2 bonds = %d, want 20", est.Bonds)
	}
	if est.EntanglingOps != est.Bonds {
		t.Errorf("entangling ops = %d", est.EntanglingOps)
	}
}
