package serve

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"quditkit/internal/circuit"
	"quditkit/internal/core"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
	"quditkit/internal/transpile"
)

// TestGateNamesMatchTable pins the advertised vocabulary to the
// dispatch table, so a gate cannot be added to one and forgotten in
// the other.
func TestGateNamesMatchTable(t *testing.T) {
	if len(GateNames) != len(gateTable) {
		t.Errorf("GateNames has %d entries, gateTable %d", len(GateNames), len(gateTable))
	}
	for _, name := range GateNames {
		if _, ok := gateTable[name]; !ok {
			t.Errorf("GateNames lists %q but gateTable lacks it", name)
		}
	}
}

// TestReuseKeyCoversEveryOpSpecField perturbs each OpSpec field in
// turn and requires the reuse key to change, so a field added to OpSpec
// without a place in gateKey fails here instead of silently sharing one
// gate between two different ops.
func TestReuseKeyCoversEveryOpSpecField(t *testing.T) {
	dims := []int{3, 3, 4}
	base := OpSpec{Gate: "givens", Targets: []int{0}, K: 1, Level: 2, Theta: 0.3, Phi: -0.2, Beta: 0.1, Phases: []float64{0, 1, 2}}
	baseKey, ok := reuseKey(dims, base)
	if !ok {
		t.Fatal("base op has no reuse key")
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		op := base
		op.Targets = append([]int(nil), base.Targets...)
		op.Phases = append([]float64(nil), base.Phases...)
		v := reflect.ValueOf(&op).Elem().Field(i)
		switch {
		case field.Name == "Targets":
			// The key holds target dimensions, not wire indices: moving
			// to a wire of equal dimension shares the gate, moving to a
			// wider one must not.
			op.Targets = []int{1}
			if k, _ := reuseKey(dims, op); k != baseKey {
				t.Errorf("retargeting to an equal-dimension wire changed the key")
			}
			op.Targets = []int{2}
		case v.Kind() == reflect.String:
			v.SetString(v.String() + "x")
		case v.Kind() == reflect.Int:
			v.SetInt(v.Int() + 1)
		case v.Kind() == reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Float64:
			v.Index(0).SetFloat(v.Index(0).Float() + 0.5)
		default:
			t.Fatalf("OpSpec.%s (%s) has no perturbation here; give it a place in gateKey and a case in this test", field.Name, field.Type)
		}
		if k, ok := reuseKey(dims, op); !ok || k == baseKey {
			t.Errorf("perturbing OpSpec.%s left the reuse key unchanged", field.Name)
		}
	}
	upper := base
	upper.Gate = strings.ToUpper(base.Gate)
	if k, _ := reuseKey(dims, upper); k != baseKey {
		t.Error("gate names differing only in case got different keys")
	}
}

// randomSpec draws a circuit over dims [3,3,3] from the whole gate
// vocabulary, with parameters from small sets so ops repeat often.
func randomSpec(rng *rand.Rand, nOps int) CircuitSpec {
	angles := []float64{0.25, -0.5, 0, 1.5}
	pick := func() float64 { return angles[rng.Intn(len(angles))] }
	spec := CircuitSpec{Dims: []int{3, 3, 3}}
	for i := 0; i < nOps; i++ {
		name := GateNames[rng.Intn(len(GateNames))]
		op := OpSpec{Gate: name}
		if rng.Intn(4) == 0 {
			op.Gate = strings.ToUpper(name)
		}
		a := rng.Intn(3)
		op.Targets = []int{a}
		if gateTable[name].arity == 2 {
			op.Targets = append(op.Targets, (a+1+rng.Intn(2))%3)
		}
		switch name {
		case "xpow":
			op.K = rng.Intn(3)
		case "phase":
			op.Level, op.Phi = rng.Intn(3), pick()
		case "givens":
			op.Level, op.K, op.Theta, op.Phi = 0, 1+rng.Intn(2), pick(), pick()
		case "snap":
			op.Phases = []float64{pick(), pick(), pick()}
		case "rotor", "fourier":
			op.Beta = pick()
		case "eqphase":
			op.Phi = pick()
		case "hop":
			op.Theta = pick()
		}
		spec.Ops = append(spec.Ops, op)
	}
	return spec
}

// buildFresh is BuildCircuit without gate reuse: every op builds its
// own gate, the reference the shared builds must match.
func buildFresh(t *testing.T, spec CircuitSpec) *circuit.Circuit {
	t.Helper()
	c, err := circuit.New(hilbert.Dims(spec.Dims))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range spec.Ops {
		g, err := buildGate(spec.Dims, op)
		if err != nil {
			t.Fatal(err)
		}
		c.MustAppend(g, op.Targets...)
	}
	return c
}

// TestBuildCircuitReuseMatchesFreshBuild proves gate reuse invisible:
// the reused circuit fingerprints like a fresh build, repeated ops do
// share one matrix, and executing the circuit through every backend
// and transpile level leaves the shared matrices untouched.
func TestBuildCircuitReuseMatchesFreshBuild(t *testing.T) {
	proc, err := core.NewCompactProcessor(2, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 4; trial++ {
		spec := randomSpec(rng, 32)
		c, err := BuildCircuit(spec)
		if err != nil {
			t.Fatal(err)
		}
		fresh := buildFresh(t, spec)
		if got, want := core.Fingerprint(c), core.Fingerprint(fresh); got != want {
			t.Fatalf("trial %d: fingerprint %x with reuse, %x fresh", trial, got, want)
		}
		ops := c.Ops()
		shared := 0
		for i := range ops {
			for j := 0; j < i; j++ {
				ki, _ := reuseKey(spec.Dims, spec.Ops[i])
				kj, _ := reuseKey(spec.Dims, spec.Ops[j])
				if ki == kj {
					if ops[i].Gate.Matrix != ops[j].Gate.Matrix {
						t.Fatalf("trial %d: ops %d and %d share a key but not a gate", trial, j, i)
					}
					shared++
					break
				}
			}
		}
		if shared == 0 {
			t.Fatalf("trial %d: no op reused a gate", trial)
		}
		model := noise.Model{Depol1: 1e-3, Depol2: 1e-2}
		for _, opts := range [][]core.RunOption{
			{core.WithShots(8)},
			{core.WithBackend(core.DensityMatrix), core.WithNoise(model), core.WithShots(8)},
			{core.WithBackend(core.Trajectory), core.WithNoise(model), core.WithShots(8)},
			{core.WithBackend(core.Trajectory), core.WithShots(8), core.WithTranspile(transpile.LevelNative)},
			{core.WithBackend(core.Trajectory), core.WithShots(8), core.WithTranspile(transpile.LevelNoise)},
		} {
			if _, err := proc.SubmitOne(c, opts...); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := core.Fingerprint(c), core.Fingerprint(fresh); got != want {
			t.Fatalf("trial %d: executing the circuit changed its gate matrices", trial)
		}
	}
}
