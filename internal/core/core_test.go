package core

import (
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"quditkit/internal/circuit"
	"quditkit/internal/gates"
	"quditkit/internal/golden"
	"quditkit/internal/hilbert"
)

func TestProcessorSubmitSmall(t *testing.T) {
	// Small custom device so the physical register stays simulable.
	dev := smallTestDevice(2)
	p, err := NewProcessor(dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	logical, err := circuit.New(hilbert.Uniform(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	logical.MustAppend(gates.DFT(3), 0)
	logical.MustAppend(gates.CSUM(3, 3), 0, 1)
	logical.MustAppend(gates.CSUM(3, 3), 0, 2)
	res, err := p.SubmitOne(logical)
	if err != nil {
		t.Fatal(err)
	}
	if res.State == nil || res.Report == nil {
		t.Fatal("missing result pieces")
	}
	if res.Report.TwoQuditGates != 2 {
		t.Errorf("two-qudit gates = %d", res.Report.TwoQuditGates)
	}
	if len(res.Report.FinalLayout) != 3 {
		t.Fatalf("final layout %v", res.Report.FinalLayout)
	}
	// GHZ structure survives routing: exactly 3 basis states populated at
	// 1/3 each.
	probs, err := res.Probabilities()
	if err != nil {
		t.Fatal(err)
	}
	populated := 0
	for _, pr := range probs {
		if pr > 1e-9 {
			populated++
			if math.Abs(pr-1.0/3) > 1e-9 {
				t.Errorf("population %v, want 1/3", pr)
			}
		}
	}
	if populated != 3 {
		t.Errorf("populated states = %d, want 3", populated)
	}

	// Plan agrees with the placement Submit used: same derived stream.
	plan, err := p.Plan(logical)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Mapping.LogicalToMode) != len(res.Mapping.LogicalToMode) {
		t.Fatalf("plan mapping %v vs submit mapping %v",
			plan.Mapping.LogicalToMode, res.Mapping.LogicalToMode)
	}
	for q, mode := range plan.Mapping.LogicalToMode {
		if res.Mapping.LogicalToMode[q] != mode {
			t.Errorf("plan and submit place wire %d differently (%d vs %d)",
				q, mode, res.Mapping.LogicalToMode[q])
		}
	}
}

func TestProcessorPlanLargeDevice(t *testing.T) {
	// Planning must work on the full forecast device even though the
	// joint space is astronomically large.
	p, err := NewForecastProcessor(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	logical, err := circuit.New(hilbert.Uniform(18, 5))
	if err != nil {
		t.Fatal(err)
	}
	hop := gates.CSUM(5, 5)
	for i := 0; i+1 < 18; i++ {
		logical.MustAppend(hop, i, i+1)
	}
	res, err := p.Plan(logical)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.TwoQuditGates != 17 {
		t.Errorf("planned gates = %d", res.Report.TwoQuditGates)
	}
	if res.Report.DurationSec <= 0 {
		t.Error("no duration accounted")
	}
}

func TestNoiseModelForDim(t *testing.T) {
	p, err := NewForecastProcessor(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NoiseModelForDim(4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Damping <= 0 || m.Damping > 0.5 {
		t.Errorf("derived damping = %v", m.Damping)
	}
	// Larger d means longer CSUM, more loss... cross-Kerr route is
	// t = 1/(d chi) which SHRINKS with d; verify consistency instead.
	m10, err := p.NoiseModelForDim(10)
	if err != nil {
		t.Fatal(err)
	}
	if m10.Damping <= 0 {
		t.Error("d=10 damping missing")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "X", Title: "test", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("hello %d", 5)
	s := tab.String()
	for _, want := range []string{"== X: test ==", "a", "bb", "hello 5"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 14 {
		t.Fatalf("registry has %d experiments, want 14", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Errorf("%s has no runner", e.ID)
		}
	}
	if _, err := FindExperiment("E3"); err != nil {
		t.Error(err)
	}
	if _, err := FindExperiment("E99"); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestAllExperimentsQuick executes every experiment in quick mode — the
// end-to-end smoke test of the full reproduction pipeline — and pins
// each rendered table to testdata/experiments/<ID>.golden, so a result
// that moves between builds fails here (see internal/golden).
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take seconds")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			tab, err := e.Run(rng, true)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			golden.Check(t, filepath.Join("testdata", "experiments", e.ID+".golden"), []byte(tab.String()))
		})
	}
}
