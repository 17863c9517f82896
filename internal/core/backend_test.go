package core

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"quditkit/internal/circuit"
	"quditkit/internal/gates"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
	"quditkit/internal/qmath"
)

// randomQutritCircuit builds a seeded 3-qutrit circuit mixing Givens
// rotations, Fourier gates, and CSUM entanglers.
func randomQutritCircuit(t *testing.T, seed int64, layers int) *circuit.Circuit {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c, err := circuit.New(hilbert.Uniform(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < layers; l++ {
		for w := 0; w < 3; w++ {
			a := rng.Intn(3)
			b := (a + 1 + rng.Intn(2)) % 3
			c.MustAppend(gates.Givens(3, a, b, rng.Float64()*math.Pi, rng.Float64()), w)
		}
		c.MustAppend(gates.DFT(3), rng.Intn(3))
		u := rng.Intn(3)
		v := (u + 1 + rng.Intn(2)) % 3
		c.MustAppend(gates.CSUM(3, 3), u, v)
	}
	return c
}

func ghzQutritCircuit(t *testing.T, n int) *circuit.Circuit {
	t.Helper()
	c, err := circuit.New(hilbert.Uniform(n, 3))
	if err != nil {
		t.Fatal(err)
	}
	c.MustAppend(gates.DFT(3), 0)
	for i := 1; i < n; i++ {
		c.MustAppend(gates.CSUM(3, 3), 0, i)
	}
	return c
}

// TestBackendEquivalenceZeroNoise: at zero noise the statevector,
// density-matrix, and 1-trajectory backends must agree on the basis
// distribution of a random 3-qutrit circuit to within 1e-9.
func TestBackendEquivalenceZeroNoise(t *testing.T) {
	c := randomQutritCircuit(t, 12345, 4)

	sv, err := StatevectorBackend{}.Execute(c, ExecSpec{})
	if err != nil {
		t.Fatal(err)
	}
	dm, err := DensityMatrixBackend{}.Execute(c, ExecSpec{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TrajectoryBackend{}.Execute(c, ExecSpec{Shots: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if tr.State == nil {
		t.Fatal("zero-noise trajectory execution did not expose the pure state")
	}

	pSV := sv.State.Probabilities()
	pDM := dm.Density.Probabilities()
	pTR := tr.State.Probabilities()
	pMean := tr.MeanProbs
	for i := range pSV {
		if d := math.Abs(pSV[i] - pDM[i]); d > 1e-9 {
			t.Fatalf("basis %d: statevector %v vs density %v (diff %v)", i, pSV[i], pDM[i], d)
		}
		if d := math.Abs(pSV[i] - pTR[i]); d > 1e-9 {
			t.Fatalf("basis %d: statevector %v vs trajectory %v (diff %v)", i, pSV[i], pTR[i], d)
		}
		if d := math.Abs(pSV[i] - pMean[i]); d > 1e-9 {
			t.Fatalf("basis %d: statevector %v vs trajectory mean %v (diff %v)", i, pSV[i], pMean[i], d)
		}
	}
}

// TestTrajectoryConvergesToDensity: with noise, the trajectory-averaged
// distribution approaches the exact density-matrix one (fixed seed, so
// the check is deterministic).
func TestTrajectoryConvergesToDensity(t *testing.T) {
	c := ghzQutritCircuit(t, 3)
	model := noise.Model{Damping: 0.05, Depol2: 0.02}

	dm, err := DensityMatrixBackend{}.Execute(c, ExecSpec{Noise: model})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TrajectoryBackend{}.Execute(c, ExecSpec{Noise: model, Shots: 600, Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tr.State != nil {
		t.Error("noisy trajectory execution must not expose a single pure state")
	}
	pDM := dm.Density.Probabilities()
	var maxDiff float64
	for i := range pDM {
		if d := math.Abs(pDM[i] - tr.MeanProbs[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.05 {
		t.Errorf("trajectory mean deviates from density matrix by %v", maxDiff)
	}
}

// TestStatevectorRejectsNoise: asking the pure-state backend for noisy
// execution must fail loudly instead of silently dropping the model.
func TestStatevectorRejectsNoise(t *testing.T) {
	c := ghzQutritCircuit(t, 2)
	_, err := StatevectorBackend{}.Execute(c, ExecSpec{Noise: noise.Model{Damping: 0.1}})
	if err == nil || !strings.Contains(err.Error(), "cannot apply noise") {
		t.Fatalf("noise accepted by statevector backend: %v", err)
	}
}

// TestSubmitCountsDeterministic: the same seed and shot budget must give
// bit-identical Counts, for repeated submissions and for any worker
// count.
func TestSubmitCountsDeterministic(t *testing.T) {
	p, err := NewCompactProcessor(2, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	model, err := p.NoiseModelForDim(3)
	if err != nil {
		t.Fatal(err)
	}
	c := ghzQutritCircuit(t, 3)
	run := func(workers int) Result {
		res, err := p.SubmitOne(c,
			WithBackend(Trajectory), WithShots(128), WithSeed(42),
			WithNoise(model), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	if base.Counts.Total() != 128 {
		t.Fatalf("counts total %d, want 128", base.Counts.Total())
	}
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		got := run(workers)
		if !base.Counts.Equal(got.Counts) {
			t.Errorf("counts differ at %d workers:\n%v\nvs\n%v", workers, base.Counts, got.Counts)
		}
	}
}

// TestSubmitOrderIndependence: identical jobs must yield identical
// mappings and histograms no matter where they sit in a batch.
func TestSubmitOrderIndependence(t *testing.T) {
	p, err := NewCompactProcessor(2, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	ghz := ghzQutritCircuit(t, 3)
	other := randomQutritCircuit(t, 99, 2)
	jobGHZ := NewJob(ghz, WithShots(64))
	jobOther := NewJob(other, WithShots(64))

	ab, err := p.Submit(jobGHZ, jobOther)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := p.Submit(jobOther, jobGHZ)
	if err != nil {
		t.Fatal(err)
	}
	if !ab[0].Counts.Equal(ba[1].Counts) || !ab[1].Counts.Equal(ba[0].Counts) {
		t.Error("histograms depend on batch order")
	}
	for i, m := range ab[0].Mapping.LogicalToMode {
		if ba[1].Mapping.LogicalToMode[i] != m {
			t.Fatalf("mapping depends on batch order: %v vs %v",
				ab[0].Mapping.LogicalToMode, ba[1].Mapping.LogicalToMode)
		}
	}
}

// TestSubmitLogicalProjection: a zero-noise GHZ run sampled through
// Submit must produce only the three diagonal logical outcomes, keyed on
// the logical register even though execution happened on the routed
// physical one.
func TestSubmitLogicalProjection(t *testing.T) {
	p, err := NewCompactProcessor(2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.SubmitOne(ghzQutritCircuit(t, 3), WithShots(300))
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != Statevector {
		t.Errorf("default backend %v", res.Backend)
	}
	want := map[string]bool{"0.0.0": true, "1.1.1": true, "2.2.2": true}
	for key := range res.Counts {
		if !want[key] {
			t.Errorf("unexpected logical outcome %q", key)
		}
	}
	if res.Counts.Total() != 300 {
		t.Errorf("total %d", res.Counts.Total())
	}
	// Logical marginals are uniform over the three levels.
	for q := 0; q < 3; q++ {
		marg, err := res.Marginal(q)
		if err != nil {
			t.Fatal(err)
		}
		for g, pr := range marg {
			if math.Abs(pr-1.0/3) > 1e-9 {
				t.Errorf("wire %d level %d marginal %v", q, g, pr)
			}
		}
	}
}

// TestCountsMatchPerShotAdd rebuilds each backend's histogram from its
// own draws with one Counts.Add per shot — the construction the
// outcome-tallying path replaced — and requires identical maps.
func TestCountsMatchPerShotAdd(t *testing.T) {
	const shots, seed = 300, 41
	c := randomQutritCircuit(t, 5, 3)
	model := noise.Model{Depol1: 2e-3, Depol2: 1e-2, Damping: 5e-3}
	dec := hilbert.NewDigitDecoder(mustSpace(t, c))

	pure, err := planFor(c, noise.Model{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := pure.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	pure.RunPure(ws)
	var sampler qmath.CDFSampler
	sampler.Load(ws.BornProbabilities())
	rng := rand.New(rand.NewSource(seed))
	wantSV := make(Counts)
	for s := 0; s < shots; s++ {
		wantSV.Add(dec.Decode(sampler.Draw(rng)))
	}

	noisy, err := planFor(c, model, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := noisy.RunDensity()
	if err != nil {
		t.Fatal(err)
	}
	wantDM := make(Counts)
	for _, k := range r.Sample(rand.New(rand.NewSource(seed)), shots) {
		wantDM.Add(dec.Decode(k))
	}

	tws, err := noisy.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	trng := rand.New(new(qmath.ShotSource))
	wantTraj := make(Counts)
	for s := 0; s < shots; s++ {
		trng.Seed(mixSeed(seed, uint64(s)))
		if _, err := noisy.RunShot(tws, trng); err != nil {
			t.Fatal(err)
		}
		sampler.Load(tws.BornProbabilities())
		wantTraj.Add(dec.Decode(sampler.Draw(trng)))
	}

	for _, tc := range []struct {
		name string
		be   Backend
		spec ExecSpec
		want Counts
	}{
		{"statevector", StatevectorBackend{}, ExecSpec{Shots: shots, Seed: seed}, wantSV},
		{"density", DensityMatrixBackend{}, ExecSpec{Noise: model, Shots: shots, Seed: seed}, wantDM},
		{"trajectory", TrajectoryBackend{}, ExecSpec{Noise: model, Shots: shots, Seed: seed, Workers: 3}, wantTraj},
	} {
		exec, err := tc.be.Execute(c, tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !exec.Counts.Equal(tc.want) {
			t.Errorf("%s: counts %v, per-shot Add %v", tc.name, exec.Counts, tc.want)
		}
		if len(tc.want) < 2 {
			t.Errorf("%s: only %d distinct outcomes; the check needs several", tc.name, len(tc.want))
		}
	}
}

func mustSpace(t *testing.T, c *circuit.Circuit) *hilbert.Space {
	t.Helper()
	sp, err := hilbert.NewSpace(c.Dims())
	if err != nil {
		t.Fatal(err)
	}
	return sp
}
