package arch

import (
	"math"
	"math/rand"
	"testing"

	"quditkit/internal/circuit"
	"quditkit/internal/gates"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
)

func TestForecastDeviceCapacity(t *testing.T) {
	dev := ForecastDevice(10)
	if err := dev.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := Capacity(dev, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalModes != 40 {
		t.Errorf("modes = %d, want 40", rep.TotalModes)
	}
	// 40 modes x log2(10) = ~132.9 qubit equivalents: "exceeds 100 qubits
	// in Hilbert space dimension" (paper §I).
	if rep.QubitEquivalent <= 100 {
		t.Errorf("qubit equivalent = %d, want > 100", rep.QubitEquivalent)
	}
	if math.Abs(rep.Log10Dim-40) > 0.5 {
		t.Errorf("log10 dim = %v, want ~40", rep.Log10Dim)
	}
	if rep.CSUMsPerT1 < 1 {
		t.Errorf("CSUMs per T1 = %v, expected at least a few", rep.CSUMsPerT1)
	}
}

func TestModeIndexRoundTrip(t *testing.T) {
	dev := ForecastDevice(3)
	for idx := 0; idx < dev.NumModes(); idx++ {
		ref, err := dev.ModeAt(idx)
		if err != nil {
			t.Fatal(err)
		}
		back, err := dev.ModeIndex(ref)
		if err != nil {
			t.Fatal(err)
		}
		if back != idx {
			t.Errorf("round trip %d -> %+v -> %d", idx, ref, back)
		}
	}
	if _, err := dev.ModeAt(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := dev.ModeAt(dev.NumModes()); err == nil {
		t.Error("overflow index accepted")
	}
	if _, err := dev.ModeIndex(ModeRef{Cavity: 9, Mode: 0}); err == nil {
		t.Error("bad cavity accepted")
	}
}

func TestDistance(t *testing.T) {
	dev := ForecastDevice(3)
	// Modes 0 and 1 are in cavity 0.
	if d := dev.Distance(0, 1); d != 0 {
		t.Errorf("co-located distance = %d", d)
	}
	// Modes 0 (cavity 0) and 4 (cavity 1).
	if d := dev.Distance(0, 4); d != 1 {
		t.Errorf("adjacent distance = %d", d)
	}
	// Modes 0 and 8 (cavity 2).
	if d := dev.Distance(0, 8); d != 2 {
		t.Errorf("two-hop distance = %d", d)
	}
}

func TestMappingCostPrefersColocation(t *testing.T) {
	dev := ForecastDevice(4)
	edges := []InteractionEdge{{U: 0, V: 1, Weight: 10}}
	// Co-located assignment.
	co := []int{0, 1}
	// Far assignment: cavity 0 and cavity 3.
	far := []int{0, 12}
	if MappingCost(dev, edges, co) >= MappingCost(dev, edges, far) {
		t.Error("co-located assignment not cheaper")
	}
}

func TestMapNoiseAwareImprovesOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dev := ForecastDevice(5)
	// Ring of 8 logical qudits.
	var edges []InteractionEdge
	n := 8
	for i := 0; i < n; i++ {
		edges = append(edges, InteractionEdge{U: i, V: (i + 1) % n, Weight: 1})
	}
	m, err := MapNoiseAware(rng, dev, n, edges, MappingOptions{Iterations: 3000})
	if err != nil {
		t.Fatal(err)
	}
	// A deliberately bad assignment: spread across the chain ends.
	bad := []int{0, 16, 1, 17, 2, 18, 3, 19}
	if m.Cost >= MappingCost(dev, edges, bad) {
		t.Errorf("annealed cost %v not better than scattered %v", m.Cost, MappingCost(dev, edges, bad))
	}
	// No duplicate modes.
	seen := map[int]bool{}
	for _, mode := range m.LogicalToMode {
		if seen[mode] {
			t.Fatal("mapping double-booked a mode")
		}
		seen[mode] = true
	}
}

func TestMapNoiseAwareValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dev := ForecastDevice(1)
	if _, err := MapNoiseAware(rng, dev, 10, nil, MappingOptions{}); err == nil {
		t.Error("too many logical qudits accepted")
	}
	if _, err := MapNoiseAware(rng, dev, 2, []InteractionEdge{{U: 0, V: 5}}, MappingOptions{}); err == nil {
		t.Error("bad edge accepted")
	}
	if _, err := MapIdentity(dev, 100); err == nil {
		t.Error("identity mapping overflow accepted")
	}
}

func TestRouteCircuitColocated(t *testing.T) {
	dev := ForecastDevice(2)
	d := 3
	logical, err := circuit.New(hilbert.Uniform(2, d))
	if err != nil {
		t.Fatal(err)
	}
	logical.MustAppend(gates.DFT(d), 0)
	logical.MustAppend(gates.CSUM(d, d), 0, 1)
	mapping, err := MapIdentity(dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	phys, rep, err := RouteCircuit(dev, logical, mapping)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SwapsInserted != 0 {
		t.Errorf("co-located gates needed %d swaps", rep.SwapsInserted)
	}
	if rep.TwoQuditGates != 1 || rep.OneQuditGates != 1 {
		t.Errorf("gate counts: %+v", rep)
	}
	if phys.NumWires() != dev.NumModes() {
		t.Errorf("physical wires = %d, want %d", phys.NumWires(), dev.NumModes())
	}
	if rep.FidelityEstimate <= 0 || rep.FidelityEstimate > 1 {
		t.Errorf("fidelity estimate %v", rep.FidelityEstimate)
	}
}

// smallDevice returns a chain of nCav cavities with two modes each, so
// simulation registers stay small in tests.
func smallDevice(nCav int) Device {
	dev := ForecastDevice(nCav)
	for i := range dev.Cavities {
		dev.Cavities[i].Modes = dev.Cavities[i].Modes[:2]
	}
	return dev
}

func TestRouteCircuitInsertsSwaps(t *testing.T) {
	dev := smallDevice(4) // 8 modes
	d := 3
	logical, err := circuit.New(hilbert.Uniform(2, d))
	if err != nil {
		t.Fatal(err)
	}
	logical.MustAppend(gates.CSUM(d, d), 0, 1)
	// Place the qudits three cavities apart: modes 0 and 6 (cavity 3).
	mapping := Mapping{LogicalToMode: []int{0, 6}}
	phys, rep, err := RouteCircuit(dev, logical, mapping)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SwapsInserted < 2 {
		t.Errorf("expected >= 2 swaps over 3 hops, got %d", rep.SwapsInserted)
	}
	// Routed circuit must preserve semantics: |a, b> on the two logical
	// qudits still CSUMs. Run physical circuit from a prepared state.
	prep, err := circuit.New(hilbert.Uniform(dev.NumModes(), d))
	if err != nil {
		t.Fatal(err)
	}
	// logical 0 at mode 0 = |1>, logical 1 at mode 6 = |2>.
	prep.MustAppend(gates.XPow(d, 1), 0)
	prep.MustAppend(gates.XPow(d, 2), 6)
	if err := prep.Compose(phys); err != nil {
		t.Fatal(err)
	}
	plan, err := prep.Compile(noise.Model{})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := plan.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	v := plan.RunPure(ws)
	// After routing, logical 1 should hold (1+2) mod 3 = 0 wherever it
	// ended up. Find it: total probability must sit on a single basis
	// state; decode digits.
	idx := v.MostProbable()
	digits := v.Space().Digits(idx)
	// Count nonzero digits: logical 0 carries |1>, logical 1 carries |0>.
	nonzero := 0
	for _, g := range digits {
		if g != 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Errorf("routed CSUM wrong: digits %v", digits)
	}
	found1 := false
	for _, g := range digits {
		if g == 1 {
			found1 = true
		}
	}
	if !found1 {
		t.Errorf("control qudit value lost: digits %v", digits)
	}
}

func TestRouteCircuitRejectsMixedDims(t *testing.T) {
	dev := ForecastDevice(2)
	logical, err := circuit.New(hilbert.Dims{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	mapping := Mapping{LogicalToMode: []int{0, 1}}
	if _, _, err := RouteCircuit(dev, logical, mapping); err == nil {
		t.Error("mixed-dimension circuit accepted")
	}
}

func TestRouteCircuitRejectsOverDimension(t *testing.T) {
	dev := ForecastDevice(2)
	logical, err := circuit.New(hilbert.Uniform(2, 16))
	if err != nil {
		t.Fatal(err)
	}
	mapping := Mapping{LogicalToMode: []int{0, 1}}
	if _, _, err := RouteCircuit(dev, logical, mapping); err == nil {
		t.Error("16-level circuit accepted on 10-level modes")
	}
}

func TestRouteCircuitDoubleBookedMapping(t *testing.T) {
	dev := ForecastDevice(2)
	logical, err := circuit.New(hilbert.Uniform(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	mapping := Mapping{LogicalToMode: []int{0, 0}}
	if _, _, err := RouteCircuit(dev, logical, mapping); err == nil {
		t.Error("double-booked mapping accepted")
	}
}
