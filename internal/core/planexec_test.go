package core

import (
	"testing"

	"quditkit/internal/circuit"
	"quditkit/internal/gates"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
)

// TestStatevectorCompiledMatchesInterpreted: the statevector backend
// must match the circuit's own plan run directly, probability-bit for
// probability-bit; the differential grid in internal/circuit holds that
// plan to the interpreter bit for bit.
func TestStatevectorCompiledMatchesInterpreted(t *testing.T) {
	c := randomQutritCircuit(t, 555, 4)
	exec, err := StatevectorBackend{}.Execute(c, ExecSpec{Shots: 200, Seed: 9})
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
	pg, pw := exec.State.Probabilities(), plan.RunPure(ws).Probabilities()
	for i := range pg {
		if pg[i] != pw[i] {
			t.Fatalf("basis %d: backend %v vs plan %v", i, pg[i], pw[i])
		}
	}
	if exec.Counts.Total() != 200 {
		t.Fatalf("counts total %d", exec.Counts.Total())
	}
}

// TestDensityCompiledMatchesInterpreted: the density backend must equal
// Circuit.RunDensity exactly; the differential grid in internal/circuit
// holds that to the interpreted RunDensityOn bit for bit.
func TestDensityCompiledMatchesInterpreted(t *testing.T) {
	c := ghzQutritCircuit(t, 3)
	model := noise.Model{Depol2: 0.04, Damping: 0.02, IdleDamping: 0.01}
	exec, err := DensityMatrixBackend{}.Execute(c, ExecSpec{Noise: model, Shots: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.RunDensity(model)
	if err != nil {
		t.Fatal(err)
	}
	g, w := exec.Density.Matrix(), want.Matrix()
	for i, x := range g.Data {
		if x != w.Data[i] {
			t.Fatalf("density entry %d: compiled %v vs interpreted %v", i, x, w.Data[i])
		}
	}
}

// TestPlanCacheReusesPlans: repeated executions of the same circuit and
// model must hit the process-wide plan cache instead of recompiling.
func TestPlanCacheReusesPlans(t *testing.T) {
	c := randomQutritCircuit(t, 777, 2)
	model := noise.Model{Damping: 0.02}
	p1, err := planFor(c, model, 0)
	if err != nil {
		t.Fatal(err)
	}
	hits0, _, _ := PlanCacheStats()
	p2, err := planFor(c, model, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("identical (circuit, model) did not reuse the cached plan")
	}
	hits1, _, entries := PlanCacheStats()
	if hits1 <= hits0 {
		t.Errorf("plan cache hits did not advance: %d -> %d", hits0, hits1)
	}
	if entries < 1 {
		t.Errorf("plan cache empty after compile")
	}
	// A different model is a different plan.
	p3, err := planFor(c, noise.Model{Damping: 0.05}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("distinct noise models shared one plan")
	}
}

// TestPlanCacheFusionCounters: compiling a fusable circuit must bump
// the process-wide fusion gauges /v1/stats reports, and PlanCacheReset
// must zero them.
func TestPlanCacheFusionCounters(t *testing.T) {
	PlanCacheReset()
	c, err := circuit.New(hilbert.Dims{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	c.MustAppend(gates.Z(3), 0)
	c.MustAppend(gates.SNAP([]float64{0.1, 0.2, 0.3}), 0)
	c.MustAppend(gates.DFT(3), 0)
	c.MustAppend(gates.CSUM(3, 3), 0, 1)
	if _, err := (TrajectoryBackend{}).Execute(c, ExecSpec{Shots: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	plans, ops := PlanCacheFusion()
	if plans != 1 || ops != 2 {
		t.Fatalf("fusion counters = (%d plans, %d ops), want (1, 2)", plans, ops)
	}
	// A cache hit must not double-count fusion work.
	if _, err := (TrajectoryBackend{}).Execute(c, ExecSpec{Shots: 4, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if plans, ops = PlanCacheFusion(); plans != 1 || ops != 2 {
		t.Fatalf("cache hit changed fusion counters to (%d, %d)", plans, ops)
	}
	PlanCacheReset()
	if plans, ops = PlanCacheFusion(); plans != 0 || ops != 0 {
		t.Fatalf("PlanCacheReset left fusion counters at (%d, %d)", plans, ops)
	}
}
