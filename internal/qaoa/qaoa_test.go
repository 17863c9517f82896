package qaoa

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"quditkit/internal/noise"
)

func TestGraphBuilders(t *testing.T) {
	g, err := Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 5 || len(g.Edges) != 5 {
		t.Errorf("cycle: %+v", g)
	}
	if _, err := NewGraph(1, nil); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewGraph(3, []Edge{{0, 0}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := NewGraph(3, []Edge{{0, 1}, {1, 0}}); err == nil {
		t.Error("duplicate edge accepted")
	}
	rng := rand.New(rand.NewSource(2))
	r, err := RandomRegularish(rng, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Edges) != 13 {
		t.Errorf("regularish edges = %d, want 13", len(r.Edges))
	}
}

// TestRandomRegularishChordBounds pins the chord-capacity check: a
// request for more chords than the cycle leaves free must error
// (previously it looped forever searching for a free pair), while
// exactly-full capacity yields the complete graph.
func TestRandomRegularishChordBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := RandomRegularish(rng, 3, 1); !errors.Is(err, ErrBadProblem) {
		t.Errorf("3-node cycle accepted a chord: %v", err)
	}
	if _, err := RandomRegularish(rng, 4, 3); !errors.Is(err, ErrBadProblem) {
		t.Errorf("4 nodes accepted 3 chords (capacity 2): %v", err)
	}
	if _, err := RandomRegularish(rng, 5, -1); !errors.Is(err, ErrBadProblem) {
		t.Errorf("negative chords accepted: %v", err)
	}
	g, err := RandomRegularish(rng, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) != 6 {
		t.Errorf("K4 edges = %d, want 6", len(g.Edges))
	}
}

func TestProperEdgesAndBestColoring(t *testing.T) {
	// Triangle: 3-colorable exactly.
	g, err := NewGraph(3, []Edge{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.ProperEdges([]int{0, 1, 2}); got != 3 {
		t.Errorf("proper coloring scores %d", got)
	}
	if got := g.ProperEdges([]int{0, 0, 0}); got != 0 {
		t.Errorf("monochrome scores %d", got)
	}
	_, best, err := g.BestColoring(3)
	if err != nil {
		t.Fatal(err)
	}
	if best != 3 {
		t.Errorf("best = %d, want 3", best)
	}
	// With 2 colors the triangle can only get 2 edges right.
	_, best2, err := g.BestColoring(2)
	if err != nil {
		t.Fatal(err)
	}
	if best2 != 2 {
		t.Errorf("2-color best = %d, want 2", best2)
	}
}

func TestGreedyAndLocalSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := Random(rng, 12, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	greedy := g.GreedyColoring(3)
	improved := g.LocalSearch(greedy, 3)
	if g.ProperEdges(improved) < g.ProperEdges(greedy) {
		t.Error("local search made things worse")
	}
	for _, c := range improved {
		if c < 0 || c >= 3 {
			t.Error("invalid color")
		}
	}
}

func TestColoringCircuitUniformAtZeroParams(t *testing.T) {
	g, err := Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewColoring(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	qc, err := col.Circuit([]float64{0}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := qc.Compile(noise.Model{})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := plan.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	v := plan.RunPure(ws)
	// Uniform superposition: expected proper edges = |E| (1 - 1/d).
	want := float64(len(g.Edges)) * (1 - 1.0/3)
	got := col.ExpectedProperEdges(v)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("uniform expectation = %v, want %v", got, want)
	}
}

func TestOptimizeP1Improves(t *testing.T) {
	g, err := Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewColoring(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, _, val, err := col.OptimizeP1(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	uniform := float64(len(g.Edges)) * (1 - 1.0/3)
	if val <= uniform+0.05 {
		t.Errorf("optimized value %v does not beat uniform %v", val, uniform)
	}
}

func TestDecodeWithShifts(t *testing.T) {
	g, err := Cycle(3)
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewColoring(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	col.Shifts = []int{1, 2, 0}
	got := col.Decode([]int{0, 0, 0})
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Decode = %v, want %v", got, want)
		}
	}
	// Gauge invariance: the shifted phase gate penalizes equal DECODED
	// colors.
	gate := col.edgePhaseGate(0, 1, 1.0)
	// digits (1, 0) decode to colors (2, 2): must carry the phase.
	idx := 1*3 + 0
	if cmplx.Abs(gate.Matrix.At(idx, idx)-cmplx.Exp(complex(0, -1.0))) > 1e-9 {
		t.Error("gauge-shifted phase separator wrong")
	}
}

func TestNDARImprovesOverVanillaUnderDamping(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	model := noise.Model{Damping: 0.25, Depol2: 0.02}
	opts := NDAROptions{Iterations: 4, Shots: 48, Gamma: 0.8, Beta: 0.5, Noise: model}

	ndar, err := RunNDAR(rng, g, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	vanillaOpts := opts
	vanillaOpts.DisableRemap = true
	vanilla, err := RunNDAR(rand.New(rand.NewSource(7)), g, 3, vanillaOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Strong damping drags vanilla samples toward the monochrome
	// attractor; NDAR re-gauges so the attractor is the best coloring.
	lastN := ndar.Rounds[len(ndar.Rounds)-1]
	lastV := vanilla.Rounds[len(vanilla.Rounds)-1]
	if lastN.MeanProper <= lastV.MeanProper {
		t.Errorf("NDAR final mean %v not above vanilla %v", lastN.MeanProper, lastV.MeanProper)
	}
	if ndar.OptimalProper != 5 {
		t.Errorf("cycle5 optimum = %d, want 5", ndar.OptimalProper)
	}
	if lastN.POptimal <= lastV.POptimal {
		t.Errorf("NDAR P(opt) %v not above vanilla %v", lastN.POptimal, lastV.POptimal)
	}
}

func TestOneHotNoiselessValid(t *testing.T) {
	g, err := NewGraph(2, []Edge{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	oh, err := NewOneHot(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := oh.RunNoisyPValid(0.7, 0.4, noise.Model{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1) > 1e-8 {
		t.Errorf("noiseless P(valid) = %v, want 1", p)
	}
}

func TestOneHotPValidDecaysWithNoise(t *testing.T) {
	g, err := NewGraph(2, []Edge{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	oh, err := NewOneHot(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	var prev = 1.0
	for _, p := range []float64{0.01, 0.05, 0.2} {
		model := noise.Model{Damping: p}
		pv, err := oh.RunNoisyPValid(0.7, 0.4, model)
		if err != nil {
			t.Fatal(err)
		}
		if pv >= prev {
			t.Errorf("P(valid) did not decay: %v -> %v at damping %v", prev, pv, p)
		}
		prev = pv
	}
	if prev > 0.8 {
		t.Errorf("P(valid) at heavy damping = %v, expected substantial decay", prev)
	}
}

func TestMUBsUnbiased(t *testing.T) {
	for _, d := range []int{3, 5} {
		mubs, err := MUBs(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(mubs) != d+1 {
			t.Fatalf("d=%d: %d bases", d, len(mubs))
		}
		want := 1 / math.Sqrt(float64(d))
		for a := 0; a < len(mubs); a++ {
			if !mubs[a].IsUnitary(1e-9) {
				t.Errorf("d=%d: basis %d not unitary", d, a)
			}
			for b := a + 1; b < len(mubs); b++ {
				for i := 0; i < d; i++ {
					for j := 0; j < d; j++ {
						var ip complex128
						for l := 0; l < d; l++ {
							ip += cmplx.Conj(mubs[a].At(l, i)) * mubs[b].At(l, j)
						}
						if math.Abs(cmplx.Abs(ip)-want) > 1e-9 {
							t.Fatalf("d=%d: |<%d:%d|%d:%d>| = %v, want %v",
								d, a, i, b, j, cmplx.Abs(ip), want)
						}
					}
				}
			}
		}
	}
	if _, err := MUBs(4); err == nil {
		t.Error("d=4 accepted")
	}
	if _, err := MUBs(2); err == nil {
		t.Error("d=2 accepted")
	}
}

func TestSolveQRACSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, err := Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveQRAC(rng, g, 3, QRACOptions{Sweeps: 30, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 6 nodes at 4 per qutrit -> 2 qudits.
	if res.Qudits != 2 {
		t.Errorf("qudits = %d, want 2", res.Qudits)
	}
	// A 6-cycle is 3-colorable; rounding + local search should color it
	// (allow one miss for robustness).
	if res.Proper < res.TotalEdges-1 {
		t.Errorf("QRAC proper = %d of %d", res.Proper, res.TotalEdges)
	}
	if res.RelaxationValue <= 0 {
		t.Errorf("relaxation value = %v", res.RelaxationValue)
	}
}

func TestSolveQRACScalesTo50Nodes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g, err := RandomRegularish(rng, 52, 20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveQRAC(rng, g, 3, QRACOptions{Sweeps: 10, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 52 nodes at 4 per qutrit -> 13 qudits ("few qudits" for 50+ nodes).
	if res.Qudits != 13 {
		t.Errorf("qudits = %d, want 13", res.Qudits)
	}
	frac := float64(res.Proper) / float64(res.TotalEdges)
	if frac < 0.85 {
		t.Errorf("QRAC fraction = %v, expected >= 0.85", frac)
	}
}

func TestSolveQRACValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, _ := Cycle(4)
	if _, err := SolveQRAC(rng, g, 4, QRACOptions{}); err == nil {
		t.Error("non-prime colors accepted")
	}
	if _, err := SolveQRAC(rng, g, 3, QRACOptions{NodesPerQudit: 9}); err == nil {
		t.Error("too many nodes per qudit accepted")
	}
	if _, err := SolveQRAC(rng, nil, 3, QRACOptions{}); err == nil {
		t.Error("nil graph accepted")
	}
}
