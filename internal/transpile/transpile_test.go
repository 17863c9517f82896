package transpile

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"quditkit/internal/arch"
	"quditkit/internal/circuit"
	"quditkit/internal/gates"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
	"quditkit/internal/qmath"
	"quditkit/internal/state"
	"quditkit/internal/synth"
)

// testDevice is a 2-cavity chain trimmed to 2 modes per cavity, the
// smallest device exercising both co-located and inter-cavity routing.
func testDevice() arch.Device { return arch.ForecastDeviceTrimmed(2, 2) }

// ghz3 is the canonical 3-qutrit GHZ preparation used across the tests.
func ghz3(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := circuit.New(hilbert.Dims{3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	c.MustAppend(gates.DFT(3), 0)
	c.MustAppend(gates.CSUM(3, 3), 0, 1)
	c.MustAppend(gates.CSUM(3, 3), 0, 2)
	return c
}

// digitsOf enumerates all basis digit strings of dims.
func digitsOf(dims hilbert.Dims) [][]int {
	sp := hilbert.MustSpace(dims)
	out := make([][]int, sp.Total())
	for k := range out {
		digits := make([]int, len(dims))
		for w := range dims {
			digits[w] = sp.Digit(k, w)
		}
		out[k] = digits
	}
	return out
}

// assertSameAction checks that two circuits on the same register act
// identically (up to round-off) on every basis state.
func assertSameAction(t *testing.T, a, b *circuit.Circuit, tol float64) {
	t.Helper()
	if !a.Dims().Equal(b.Dims()) {
		t.Fatalf("dims differ: %v vs %v", a.Dims(), b.Dims())
	}
	planA, err := a.Compile(noise.Model{})
	if err != nil {
		t.Fatal(err)
	}
	planB, err := b.Compile(noise.Model{})
	if err != nil {
		t.Fatal(err)
	}
	wsA, err := planA.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	wsB, err := planB.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	for _, digits := range digitsOf(a.Dims()) {
		va, err := state.NewBasis(a.Dims(), digits)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := state.NewBasis(b.Dims(), digits)
		if err != nil {
			t.Fatal(err)
		}
		if err := planA.RunPureOn(wsA, va); err != nil {
			t.Fatal(err)
		}
		if err := planB.RunPureOn(wsB, vb); err != nil {
			t.Fatal(err)
		}
		ampA, ampB := va.RawAmplitudes(), vb.RawAmplitudes()
		for k := range ampA {
			if cmplx.Abs(ampA[k]-ampB[k]) > tol {
				t.Fatalf("basis %v amplitude %d: %v vs %v", digits, k, ampA[k], ampB[k])
			}
		}
	}
}

func TestDecomposePreservesAction(t *testing.T) {
	logical := ghz3(t)
	// Add a non-native inverse entangler and a generic unitary to cover
	// every lowering branch.
	logical.MustAppend(gates.CSUMInv(3, 3), 1, 2)
	logical.MustAppend(gates.Givens(3, 0, 2, 0.3, 0.7), 1) // non-adjacent: must lower

	ctx := &Context{Device: testDevice(), Circuit: logical}
	if err := (decomposePass{}).Run(ctx); err != nil {
		t.Fatal(err)
	}
	assertSameAction(t, logical, ctx.Circuit, 1e-9)
}

func TestDecomposeEmitsOnlyNatives(t *testing.T) {
	logical := ghz3(t)
	logical.MustAppend(gates.CSUMInv(3, 3), 0, 1)
	ctx := &Context{Device: testDevice(), Circuit: logical}
	if err := (decomposePass{}).Run(ctx); err != nil {
		t.Fatal(err)
	}
	for i, op := range ctx.Circuit.Ops() {
		switch op.Gate.Arity() {
		case 1:
			if !synth.NativeSingleQudit(op.Gate) {
				t.Errorf("op %d (%s): not a native single-qudit gate", i, op.Gate.Name)
			}
		case 2:
			if !synth.NativeTwoQudit(op.Gate) {
				t.Errorf("op %d (%s): not a native two-qudit gate", i, op.Gate.Name)
			}
		default:
			t.Errorf("op %d (%s): unexpected arity %d", i, op.Gate.Name, op.Gate.Arity())
		}
	}
	if ctx.Circuit.Len() <= logical.Len() {
		t.Fatalf("decomposition did not expand the circuit: %d -> %d ops",
			logical.Len(), ctx.Circuit.Len())
	}
}

func TestNativePassThroughUnchanged(t *testing.T) {
	c, err := circuit.New(hilbert.Dims{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	c.MustAppend(gates.Z(3), 0)                         // diagonal: native
	c.MustAppend(gates.Givens(3, 0, 1, 0.4, 0.1), 1)    // adjacent two-level: native
	c.MustAppend(gates.CZ(3, 3), 0, 1)                  // diagonal entangler: native
	c.MustAppend(gates.SNAP([]float64{0, 0.2, 0.4}), 0) // diagonal: native
	ctx := &Context{Device: testDevice(), Circuit: c}
	if err := (decomposePass{}).Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Circuit.Len(); got != c.Len() {
		t.Fatalf("native circuit rewritten: %d -> %d ops", c.Len(), got)
	}
	for i, op := range ctx.Circuit.Ops() {
		if op.Gate.Name != c.Ops()[i].Gate.Name {
			t.Fatalf("op %d renamed %s -> %s", i, c.Ops()[i].Gate.Name, op.Gate.Name)
		}
	}
}

// TestCSUMImpostorPassesThrough: a gate that merely borrows the CSUM
// name must NOT be rewritten to the canonical realization — lowering
// is a matrix decision, and a silent rewrite would change the unitary.
func TestCSUMImpostorPassesThrough(t *testing.T) {
	c, err := circuit.New(hilbert.Dims{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	impostor := gates.SWAP(3)
	impostor.Name = "CSUMVariant"
	c.MustAppend(impostor, 0, 1)
	ctx := &Context{Device: testDevice(), Circuit: c}
	if err := (decomposePass{}).Run(ctx); err != nil {
		t.Fatal(err)
	}
	ops := ctx.Circuit.Ops()
	if len(ops) != 1 || ops[0].Gate.Name != "CSUMVariant" {
		t.Fatalf("impostor was rewritten: %v", ctx.Circuit.String())
	}
	assertSameAction(t, c, ctx.Circuit, 1e-12)
}

func TestPipelineLevels(t *testing.T) {
	dev := testDevice()
	cases := []struct {
		level Level
		want  []string
	}{
		{LevelRoute, []string{"place", "route"}},
		{LevelNative, []string{"decompose", "place", "route"}},
		{LevelNoise, []string{"decompose", "place", "route", "annotate-noise"}},
	}
	for _, tc := range cases {
		p, err := New(dev, tc.level)
		if err != nil {
			t.Fatal(err)
		}
		got := p.PassNames()
		if len(got) != len(tc.want) {
			t.Fatalf("level %s: passes %v, want %v", tc.level, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("level %s: passes %v, want %v", tc.level, got, tc.want)
			}
		}
	}
	if _, err := New(dev, Level(7)); err == nil {
		t.Fatal("expected error for undefined level")
	}
	if _, err := ParseLevel(-1); err == nil {
		t.Fatal("expected error for negative level")
	}
}

func TestPipelineRunRouteMatchesArch(t *testing.T) {
	dev := testDevice()
	p, err := New(dev, LevelRoute)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(rand.New(rand.NewSource(7)), ghz3(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Physical.NumWires() != dev.NumModes() {
		t.Fatalf("physical register %d wires, device has %d modes",
			res.Physical.NumWires(), dev.NumModes())
	}
	if res.Report == nil || len(res.Report.FinalLayout) != 3 {
		t.Fatalf("missing or malformed route report: %+v", res.Report)
	}
	if res.Noise != nil {
		t.Fatal("LevelRoute must not annotate noise")
	}
}

func TestPipelineDeterministicUnderFixedSeed(t *testing.T) {
	dev := testDevice()
	for _, level := range []Level{LevelRoute, LevelNative, LevelNoise} {
		p, err := New(dev, level)
		if err != nil {
			t.Fatal(err)
		}
		a, err := p.Run(rand.New(rand.NewSource(42)), ghz3(t))
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Run(rand.New(rand.NewSource(42)), ghz3(t))
		if err != nil {
			t.Fatal(err)
		}
		opsA, opsB := a.Physical.Ops(), b.Physical.Ops()
		if len(opsA) != len(opsB) {
			t.Fatalf("level %s: op counts differ: %d vs %d", level, len(opsA), len(opsB))
		}
		for i := range opsA {
			if opsA[i].Gate.Name != opsB[i].Gate.Name {
				t.Fatalf("level %s op %d: gate %s vs %s", level, i, opsA[i].Gate.Name, opsB[i].Gate.Name)
			}
			for k, tgt := range opsA[i].Targets {
				if tgt != opsB[i].Targets[k] {
					t.Fatalf("level %s op %d: targets %v vs %v", level, i, opsA[i].Targets, opsB[i].Targets)
				}
			}
			for k, amp := range opsA[i].Gate.Matrix.Data {
				if amp != opsB[i].Gate.Matrix.Data[k] {
					t.Fatalf("level %s op %d: matrices differ at entry %d", level, i, k)
				}
			}
		}
		if a.Report.SwapsInserted != b.Report.SwapsInserted ||
			a.Report.DurationSec != b.Report.DurationSec ||
			a.Report.FidelityEstimate != b.Report.FidelityEstimate {
			t.Fatalf("level %s: reports differ: %+v vs %+v", level, a.Report, b.Report)
		}
	}
}

func TestAnnotateNoiseDeviceRealistic(t *testing.T) {
	dev := testDevice()
	p, err := New(dev, LevelNoise)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(rand.New(rand.NewSource(1)), ghz3(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Noise == nil {
		t.Fatal("LevelNoise produced no noise model")
	}
	m := *res.Noise
	if m.Damping <= 0 || m.Dephasing <= 0 || m.IdleDamping <= 0 || m.IdleDephasing <= 0 {
		t.Fatalf("expected positive device-derived rates, got %+v", m)
	}
	if m.Depol1 != 1e-4 || m.Depol2 != 1e-3 {
		t.Fatalf("unexpected depolarizing floors: %+v", m)
	}
	// Two-qudit gates take longer than one-qudit ones, so damping (charged
	// over the CSUM duration) must dominate the idle rate (one 1Q duration).
	if m.Damping <= m.IdleDamping {
		t.Fatalf("damping %g should exceed idle damping %g", m.Damping, m.IdleDamping)
	}
	want, err := DeviceNoiseModel(dev, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m != want {
		t.Fatalf("annotated model %+v != DeviceNoiseModel %+v", m, want)
	}
}

func TestDeviceNoiseModelUsesWorstCoherence(t *testing.T) {
	dev := testDevice()
	// Degrade one far mode; the derived model must get worse.
	base, err := DeviceNoiseModel(dev, 3)
	if err != nil {
		t.Fatal(err)
	}
	dev.Cavities[1].Modes[1].T1Sec /= 10
	dev.Cavities[1].Modes[1].T2Sec /= 10
	worse, err := DeviceNoiseModel(dev, 3)
	if err != nil {
		t.Fatal(err)
	}
	if worse.Damping <= base.Damping || worse.Dephasing <= base.Dephasing {
		t.Fatalf("degrading a mode did not worsen the model: %+v vs %+v", worse, base)
	}
}

func TestFingerprints(t *testing.T) {
	devA := testDevice()
	devB := arch.ForecastDeviceTrimmed(3, 2)
	if DeviceFingerprint(devA) != DeviceFingerprint(testDevice()) {
		t.Fatal("equal devices must fingerprint equally")
	}
	if DeviceFingerprint(devA) == DeviceFingerprint(devB) {
		t.Fatal("different chain lengths must fingerprint differently")
	}
	devC := testDevice()
	devC.Cavities[0].Modes[0].T1Sec *= 2
	if DeviceFingerprint(devA) == DeviceFingerprint(devC) {
		t.Fatal("different T1 must fingerprint differently")
	}
	p0, _ := New(devA, LevelRoute)
	p2, _ := New(devA, LevelNoise)
	if p0.Fingerprint() == p2.Fingerprint() {
		t.Fatal("different levels must fingerprint differently")
	}
	q0, _ := New(devB, LevelRoute)
	if p0.Fingerprint() == q0.Fingerprint() {
		t.Fatal("different devices must fingerprint differently")
	}
}

func TestLevelStrings(t *testing.T) {
	for lvl, want := range map[Level]string{
		LevelRoute: "route", LevelNative: "native", LevelNoise: "noise",
	} {
		if lvl.String() != want {
			t.Fatalf("Level(%d).String() = %q, want %q", int(lvl), lvl.String(), want)
		}
	}
	if got := Level(9).String(); got != "Level(9)" {
		t.Fatalf("unexpected fallback string %q", got)
	}
}

func TestRunNilCircuit(t *testing.T) {
	p, err := New(testDevice(), LevelRoute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(rand.New(rand.NewSource(1)), nil); err == nil {
		t.Fatal("expected error for nil circuit")
	}
}

func TestLowerSingleQuditExact(t *testing.T) {
	for _, g := range []gates.Gate{
		gates.DFT(4),
		gates.RotorMixer(5, 0.7),
		gates.XPow(3, 2),
	} {
		lowered, err := synth.LowerSingleQudit(g)
		if err != nil {
			t.Fatal(err)
		}
		d := g.Dims[0]
		// Multiply the lowered gates in application order and compare.
		acc := qmath.Identity(d)
		for _, lg := range lowered {
			acc = lg.Matrix.Mul(acc)
		}
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				if diff := cmplx.Abs(acc.At(i, j) - g.Matrix.At(i, j)); diff > 1e-9 {
					t.Fatalf("%s: lowered product differs at (%d,%d) by %g", g.Name, i, j, diff)
				}
			}
		}
		if math.IsNaN(real(acc.At(0, 0))) {
			t.Fatalf("%s: NaN in lowered product", g.Name)
		}
	}
}
