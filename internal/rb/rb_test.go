package rb

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"quditkit/internal/noise"
)

func TestRunNoiseless(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	res, err := Run(rng, Options{
		Dim:     4,
		Lengths: []int{1, 4, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		if math.Abs(pt.Survival-1) > 1e-8 {
			t.Errorf("noiseless survival at m=%d is %v", pt.Length, pt.Survival)
		}
	}
	if res.AvgGateInfidelity > 1e-6 {
		t.Errorf("noiseless infidelity = %v", res.AvgGateInfidelity)
	}
}

func TestRunDecaysWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	model := noise.Model{Depol1: 0.03}
	res, err := Run(rng, Options{
		Dim:       3,
		Lengths:   []int{1, 3, 6, 12, 24},
		Sequences: 12,
		Noise:     model,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Survival decays monotonically (up to sampling noise) toward 1/d.
	first := res.Points[0].Survival
	last := res.Points[len(res.Points)-1].Survival
	if last >= first {
		t.Errorf("no decay: %v -> %v", first, last)
	}
	if last < 1.0/3-0.05 {
		t.Errorf("survival fell below the depolarized floor: %v", last)
	}
	// The fitted infidelity should be close to the injected depolarizing
	// strength (for depolarizing noise, r ~ p_dep within the RB model).
	if res.AvgGateInfidelity < 0.005 || res.AvgGateInfidelity > 0.1 {
		t.Errorf("fitted infidelity %v implausible for p=0.03", res.AvgGateInfidelity)
	}
}

func TestRunRecoveryOfKnownRate(t *testing.T) {
	// For a pure depolarizing channel with probability q per gate, the RB
	// decay parameter is exactly p = 1-q, so r = (d-1)/d q.
	rng := rand.New(rand.NewSource(3))
	q := 0.02
	d := 3
	res, err := Run(rng, Options{
		Dim:       d,
		Lengths:   []int{1, 2, 4, 8, 16},
		Sequences: 16,
		Noise:     noise.Model{Depol1: q},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(d-1) / float64(d) * q
	if math.Abs(res.AvgGateInfidelity-want) > want {
		t.Errorf("fitted r = %v, want ~%v", res.AvgGateInfidelity, want)
	}
}

func TestRunValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Run(rng, Options{Dim: 1, Lengths: []int{1, 2}}); err == nil {
		t.Error("dim=1 accepted")
	}
	if _, err := Run(rng, Options{Dim: 3, Lengths: []int{4}}); err == nil {
		t.Error("single length accepted")
	}
	if _, err := Run(rng, Options{Dim: 3, Lengths: []int{0, 2}}); err == nil {
		t.Error("zero length accepted")
	}
}

func TestDamplingBiasesButStillDecays(t *testing.T) {
	// Photon loss is not gate-independent noise, but RB still yields a
	// usable decay estimate — the practical situation for cavity qudits.
	rng := rand.New(rand.NewSource(4))
	res, err := Run(rng, Options{
		Dim:       4,
		Lengths:   []int{1, 4, 8, 16},
		Sequences: 10,
		Noise:     noise.Model{Damping: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgGateInfidelity <= 0 {
		t.Errorf("no infidelity measured under damping: %v", res.AvgGateInfidelity)
	}
}

// TestFitDecay: the fit recovers a known decay, clamps a rising curve
// to p = 1, and rejects a saturated curve and a single length.
func TestFitDecay(t *testing.T) {
	const d = 3
	var exact []Point
	for _, m := range []int{1, 2, 4, 8} {
		exact = append(exact, Point{Length: m, Survival: 0.6*math.Pow(0.9, float64(m)) + 1.0/d})
	}
	if p, err := FitDecay(exact, d); err != nil || math.Abs(p-0.9) > 1e-12 {
		t.Fatalf("exact curve: p = %v, %v; want 0.9", p, err)
	}
	rising := []Point{{1, 0.5}, {2, 0.6}}
	if p, err := FitDecay(rising, d); err != nil || p != 1 {
		t.Fatalf("rising curve: p = %v, %v; want 1", p, err)
	}
	for name, pts := range map[string][]Point{
		"saturated":    {{1, 1.0 / d}, {2, 0.2}, {4, 1.0 / d}},
		"one length":   {{4, 0.9}, {4, 0.8}},
		"single point": {{1, 0.9}},
	} {
		if _, err := FitDecay(pts, d); !errors.Is(err, ErrBadProtocol) {
			t.Errorf("%s: err = %v, want ErrBadProtocol", name, err)
		}
	}
}
