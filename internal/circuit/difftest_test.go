// The differential proof layer for the execution engines. It drives
// one (circuit, noise model, seed, shots) case through every path and
// demands byte-identical results. runCase covers the trajectory engine:
//
//   - Every trajectory shot runs three ways — the per-op interpreter
//     (Circuit.RunTrajectory), the compiled plan without fusion, and the
//     fused plan — on identically seeded qmath.ShotSource streams. Each
//     shot must leave equal amplitudes (bit-equal up to the sign of a
//     zero) and the same next draw, so all three consumed the same
//     number of draws.
//   - core.TrajectoryBackend runs the case at every worker count of the
//     grid, and each Execution must equal the one at width 1: same
//     Counts, same MeanProbs bits, same per-wire marginal bits, same
//     final-state amplitude bits when a state is exposed. The backend
//     runs the fused plan one shot at a time in one shot loop, so
//     per-shot identity plus identity across widths proves its Execution
//     is the one the interpreter would give.
//
// exact covers the pure path (Plan.RunPure against Circuit.Run) and the
// density path (Plan.RunDensity against the interpreted
// Circuit.RunDensityOn), fused and unfused.
//
// Byte-identity (not approximate closeness) is the repo's contract:
// every fast path must perform the same floating-point operations in
// the same order as the reference, so any divergence — a reordered
// accumulation, a fused kernel that rounds differently, an extra rng
// draw — is a hard failure, not tolerance noise. The grid lives in
// circuit's external test package, which can import core without an
// import cycle and still sees the interpreter declared in
// interp_test.go.

package circuit_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"quditkit/internal/circuit"
	"quditkit/internal/core"
	"quditkit/internal/density"
	"quditkit/internal/gates"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
	"quditkit/internal/qmath"
)

// diffCase is one differential tuple: a circuit, the noise model to
// unravel, and the sampling seed/shot budget shared by every path.
type diffCase struct {
	Name    string
	Circuit *circuit.Circuit
	Noise   noise.Model
	Seed    int64
	Shots   int
}

// gridWorkers are the worker counts the trajectory backend runs each
// case at. Width 1 is always the reference.
var gridWorkers = []int{1, 4, 8}

// runCase executes the case through every trajectory path and returns
// an error naming the first one that diverges: the per-shot oracle
// (shots), then the backend at every worker count of gridWorkers
// against width 1.
func runCase(cs diffCase) error {
	if err := shots(cs); err != nil {
		return err
	}
	ref, err := exec(cs, 1)
	if err != nil {
		return fmt.Errorf("%s: workers=1: %w", cs.Name, err)
	}
	for _, w := range gridWorkers {
		if w == 1 {
			continue
		}
		got, err := exec(cs, w)
		if err != nil {
			return fmt.Errorf("%s: workers=%d: %w", cs.Name, w, err)
		}
		if err := compare(cs, ref, got, "workers=1", fmt.Sprintf("workers=%d", w)); err != nil {
			return err
		}
	}
	return nil
}

func exec(cs diffCase, workers int) (core.Execution, error) {
	return core.TrajectoryBackend{}.Execute(cs.Circuit, core.ExecSpec{
		Noise: cs.Noise, Shots: cs.Shots, Seed: cs.Seed, Workers: workers,
	})
}

// plans compiles the case's circuit against its noise model without and
// with fusion.
func plans(cs diffCase) (unfused, fused *circuit.Plan, err error) {
	unfused, err = cs.Circuit.CompileWith(cs.Noise, circuit.CompileOptions{DisableFusion: true})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: compile without fusion: %w", cs.Name, err)
	}
	fused, err = cs.Circuit.Compile(cs.Noise)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: compile: %w", cs.Name, err)
	}
	return unfused, fused, nil
}

// shots runs every trajectory shot of the case through the interpreter,
// the unfused plan and the fused plan. Shot t of all three paths draws
// from a qmath.ShotSource seeded alike (from cs.Seed, not the backend's
// per-shot seeds); each shot must leave equal amplitudes on all three
// (see firstDiff), and the next draw of all three streams must agree.
func shots(cs diffCase) error {
	unfused, fused, err := plans(cs)
	if err != nil {
		return err
	}
	uws, err := unfused.NewWorkspace()
	if err != nil {
		return err
	}
	fws, err := fused.NewWorkspace()
	if err != nil {
		return err
	}
	seeds := rand.New(rand.NewSource(cs.Seed))
	var src [3]qmath.ShotSource
	rngs := [3]*rand.Rand{rand.New(&src[0]), rand.New(&src[1]), rand.New(&src[2])}
	names := [3]string{"interpreted", "plan(nofuse)", "plan(fused)"}
	for t := 0; t < cs.Shots; t++ {
		seed := seeds.Int63()
		for i := range src {
			src[i].Seed(seed)
		}
		ref, err := cs.Circuit.RunTrajectory(rngs[0], cs.Noise)
		if err != nil {
			return fmt.Errorf("%s: shot %d: interpreted: %w", cs.Name, t, err)
		}
		u, err := unfused.RunShot(uws, rngs[1])
		if err != nil {
			return fmt.Errorf("%s: shot %d: %s: %w", cs.Name, t, names[1], err)
		}
		f, err := fused.RunShot(fws, rngs[2])
		if err != nil {
			return fmt.Errorf("%s: shot %d: %s: %w", cs.Name, t, names[2], err)
		}
		for i, got := range [][]complex128{u.RawAmplitudes(), f.RawAmplitudes()} {
			if k := firstDiff(ref.RawAmplitudes(), got); k >= 0 {
				return fmt.Errorf("%s: shot %d: amplitude %d diverges between interpreted and %s: %v vs %v",
					cs.Name, t, k, names[i+1], ref.RawAmplitudes()[k], got[k])
			}
		}
		next := rngs[0].Uint64()
		for i := 1; i < len(rngs); i++ {
			if d := rngs[i].Uint64(); d != next {
				return fmt.Errorf("%s: shot %d: %s consumed a different number of draws than interpreted (next draw %#x vs %#x)",
					cs.Name, t, names[i], d, next)
			}
		}
	}
	return nil
}

// exact compares the exact engines with their interpreted references,
// bit for bit, on plans compiled without and with fusion: Plan.RunPure
// against Circuit.Run, and Plan.RunDensity against
// Circuit.RunDensityOn under the case's noise model, idle rates
// included.
func exact(cs diffCase) error {
	unfused, fused, err := plans(cs)
	if err != nil {
		return err
	}
	pure, err := cs.Circuit.Run()
	if err != nil {
		return fmt.Errorf("%s: interpreted Run: %w", cs.Name, err)
	}
	rho, err := density.NewZero(cs.Circuit.Dims())
	if err != nil {
		return err
	}
	if err := cs.Circuit.RunDensityOn(rho, cs.Noise); err != nil {
		return fmt.Errorf("%s: interpreted RunDensityOn: %w", cs.Name, err)
	}
	for _, p := range []struct {
		name string
		plan *circuit.Plan
	}{{"plan(nofuse)", unfused}, {"plan(fused)", fused}} {
		ws, err := p.plan.NewWorkspace()
		if err != nil {
			return err
		}
		got := p.plan.RunPure(ws).RawAmplitudes()
		if k := firstDiff(pure.RawAmplitudes(), got); k >= 0 {
			return fmt.Errorf("%s: pure amplitude %d diverges between Circuit.Run and %s.RunPure: %v vs %v",
				cs.Name, k, p.name, pure.RawAmplitudes()[k], got[k])
		}
		r, err := p.plan.RunDensity()
		if err != nil {
			return fmt.Errorf("%s: %s.RunDensity: %w", cs.Name, p.name, err)
		}
		want, gotRho := rho.Matrix().Data, r.Matrix().Data
		if k := firstDiff(want, gotRho); k >= 0 {
			return fmt.Errorf("%s: density entry %d diverges between RunDensityOn and %s.RunDensity: %v vs %v",
				cs.Name, k, p.name, want[k], gotRho[k])
		}
	}
	return nil
}

// firstDiff returns the first index where a and b differ, or -1 when
// they are equal (a length mismatch differs at the shorter length).
// Entries compare with ==, which is bit equality except that +0 and -0
// are equal: the interpreter and the plan kernels may round an exact
// cancellation to zeros of different sign, and both square to the same
// probability.
func firstDiff(a, b []complex128) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// compare asserts two executions of the same case are byte-identical:
// exact Counts equality, bitwise MeanProbs, bitwise per-wire
// marginals derived from MeanProbs, and bitwise state amplitudes when
// both paths expose a state.
func compare(cs diffCase, ref, got core.Execution, refName, gotName string) error {
	if !reflect.DeepEqual(ref.Counts, got.Counts) {
		return fmt.Errorf("%s: Counts diverge between %s and %s:\n%s: %v\n%s: %v",
			cs.Name, refName, gotName, refName, ref.Counts, gotName, got.Counts)
	}
	if len(ref.MeanProbs) != len(got.MeanProbs) {
		return fmt.Errorf("%s: MeanProbs length %d (%s) vs %d (%s)",
			cs.Name, len(ref.MeanProbs), refName, len(got.MeanProbs), gotName)
	}
	for i := range ref.MeanProbs {
		if math.Float64bits(ref.MeanProbs[i]) != math.Float64bits(got.MeanProbs[i]) {
			return fmt.Errorf("%s: MeanProbs[%d] bits diverge between %s and %s: %v vs %v",
				cs.Name, i, refName, gotName, ref.MeanProbs[i], got.MeanProbs[i])
		}
	}
	refMarg, err := marginals(cs.Circuit.Dims(), ref.MeanProbs)
	if err != nil {
		return fmt.Errorf("%s: %w", cs.Name, err)
	}
	gotMarg, err := marginals(cs.Circuit.Dims(), got.MeanProbs)
	if err != nil {
		return fmt.Errorf("%s: %w", cs.Name, err)
	}
	for w := range refMarg {
		for g := range refMarg[w] {
			if math.Float64bits(refMarg[w][g]) != math.Float64bits(gotMarg[w][g]) {
				return fmt.Errorf("%s: wire %d marginal[%d] bits diverge between %s and %s: %v vs %v",
					cs.Name, w, g, refName, gotName, refMarg[w][g], gotMarg[w][g])
			}
		}
	}
	if ref.State != nil && got.State != nil {
		ra, ga := ref.State.RawAmplitudes(), got.State.RawAmplitudes()
		if i := firstDiff(ra, ga); i >= 0 {
			return fmt.Errorf("%s: state diverges at amplitude %d between %s (%d amplitudes) and %s (%d)",
				cs.Name, i, refName, len(ra), gotName, len(ga))
		}
	}
	return nil
}

// marginals reduces flat basis probabilities to per-wire outcome
// distributions, accumulating in ascending flat-index order so equal
// inputs give bitwise-equal outputs.
func marginals(dims hilbert.Dims, probs []float64) ([][]float64, error) {
	sp, err := hilbert.NewSpace(dims)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, sp.NumWires())
	for w := range out {
		out[w] = make([]float64, sp.Dim(w))
	}
	for i, p := range probs {
		for w := 0; w < sp.NumWires(); w++ {
			out[w][(i/sp.Stride(w))%sp.Dim(w)] += p
		}
	}
	return out, nil
}

// randomCircuit builds a deterministic pseudo-random circuit on the
// given register: n gates drawn across every kernel class — diagonal
// (Z, SNAP), monomial (X, XPow), dense (DFT, Givens), and, between
// same-dimension wire pairs, controlled (CSUM) and diagonal two-qudit
// (CZ). Wires are picked with a bias toward repeating the previous
// target so adjacent same-wire runs — the structure fusion collapses —
// occur often rather than occasionally.
func randomCircuit(dims hilbert.Dims, n int, seed int64) (*circuit.Circuit, error) {
	c, err := circuit.New(dims)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	prev := 0
	for i := 0; i < n; i++ {
		w := rng.Intn(len(dims))
		if rng.Intn(2) == 0 {
			w = prev // repeat the previous wire: feeds fusion runs
		}
		d := dims[w]
		var g gates.Gate
		var targets []int
		switch rng.Intn(7) {
		case 0:
			g, targets = gates.Z(d), []int{w}
		case 1:
			phases := make([]float64, d)
			for j := range phases {
				phases[j] = rng.Float64() * 2 * math.Pi
			}
			g, targets = gates.SNAP(phases), []int{w}
		case 2:
			g, targets = gates.X(d), []int{w}
		case 3:
			g, targets = gates.XPow(d, 1+rng.Intn(d-1)), []int{w}
		case 4:
			g, targets = gates.DFT(d), []int{w}
		case 5:
			j := rng.Intn(d - 1)
			g, targets = gates.Givens(d, j, j+1, rng.Float64()*math.Pi, rng.Float64()*2*math.Pi), []int{w}
		default:
			// Two-qudit gate when a same-dimension partner exists;
			// otherwise fall back to a dense single-qudit gate.
			w2 := -1
			for _, cand := range rng.Perm(len(dims)) {
				if cand != w && dims[cand] == d {
					w2 = cand
					break
				}
			}
			if w2 < 0 {
				g, targets = gates.DFT(d), []int{w}
				break
			}
			if rng.Intn(2) == 0 {
				g, targets = gates.CSUM(d, d), []int{w, w2}
			} else {
				g, targets = gates.CZ(d, d), []int{w, w2}
			}
		}
		if err := c.Append(g, targets...); err != nil {
			return nil, err
		}
		prev = w
	}
	return c, nil
}

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
	for ri, dims := range registers {
		for _, m := range models {
			for seed := int64(1); seed <= 3; seed++ {
				c, err := randomCircuit(dims, 24, seed*101+int64(ri))
				if err != nil {
					t.Fatalf("randomCircuit(%v, seed %d): %v", dims, seed, err)
				}
				cs := diffCase{
					Name:    fmt.Sprintf("dims=%v/%s/seed=%d", dims, m.name, seed),
					Circuit: c,
					Noise:   m.model,
					Seed:    seed,
					Shots:   96,
				}
				runExact := dims.Total() <= 27 || seed == 1
				t.Run(cs.Name, func(t *testing.T) {
					t.Parallel()
					if m.trajectories {
						if err := runCase(cs); err != nil {
							t.Fatal(err)
						}
					}
					if runExact {
						if err := exact(cs); err != nil {
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
	if err := exact(diffCase{Name: "ghz", Circuit: c, Noise: model}); err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		cs := diffCase{
			Name:    fmt.Sprintf("ghz/seed=%d", seed),
			Circuit: c,
			Noise:   model,
			Seed:    seed,
			Shots:   256,
		}
		t.Run(cs.Name, func(t *testing.T) {
			t.Parallel()
			if err := runCase(cs); err != nil {
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
	c, err := randomCircuit(hilbert.Dims{2, 3}, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	cs := diffCase{Name: "teeth", Circuit: c, Seed: 7, Shots: 32}
	ref, err := core.TrajectoryBackend{}.Execute(c, core.ExecSpec{Shots: 32, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := compare(cs, ref, ref, "a", "b"); err != nil {
		t.Fatalf("identical executions compared unequal: %v", err)
	}

	flipped := ref
	flipped.MeanProbs = append([]float64(nil), ref.MeanProbs...)
	flipped.MeanProbs[0] = math.Float64frombits(math.Float64bits(flipped.MeanProbs[0]) ^ 1)
	if err := compare(cs, ref, flipped, "ref", "bitflip"); err == nil {
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
	if err := compare(cs, ref, moved, "ref", "moved"); err == nil {
		t.Fatal("counts divergence not detected")
	}
}

// TestMarginalsSumToWireDistributions checks the marginal reduction on
// a hand-computable case: a product state |1> ⊗ uniform.
func TestMarginalsSumToWireDistributions(t *testing.T) {
	t.Parallel()
	dims := hilbert.Dims{2, 3}
	probs := []float64{0, 0, 0, 1 / 3.0, 1 / 3.0, 1 / 3.0}
	marg, err := marginals(dims, probs)
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
