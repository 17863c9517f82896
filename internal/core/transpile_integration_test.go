package core

import (
	"reflect"
	"testing"

	"quditkit/internal/arch"
	"quditkit/internal/noise"
	"quditkit/internal/transpile"
)

// TestSubmitWithTranspileLevels: every level executes through Submit,
// the derived noise model is applied exactly at LevelNoise, and counts
// are byte-identical across worker counts and resubmissions.
func TestSubmitWithTranspileLevels(t *testing.T) {
	proc, err := NewCompactProcessor(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := ghzQutritCircuit(t, 3)

	clean, err := proc.SubmitOne(c, WithShots(128), WithBackend(Trajectory))
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Noise.IsZero() || clean.Transpile != transpile.LevelRoute {
		t.Fatalf("default submission: noise %+v level %v", clean.Noise, clean.Transpile)
	}

	var noisy Result
	for i, workers := range []int{1, 4, 8} {
		res, err := proc.SubmitOne(c,
			WithShots(128), WithBackend(Trajectory),
			WithTranspile(transpile.LevelNoise), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if res.Noise.IsZero() {
			t.Fatal("LevelNoise submission executed noiselessly")
		}
		if res.Transpile != transpile.LevelNoise {
			t.Fatalf("result level %v", res.Transpile)
		}
		if i == 0 {
			noisy = res
			continue
		}
		if !reflect.DeepEqual(noisy.Counts, res.Counts) {
			t.Fatalf("counts differ at %d workers:\n%v\nvs\n%v", workers, noisy.Counts, res.Counts)
		}
	}
	if reflect.DeepEqual(clean.Counts, noisy.Counts) {
		t.Error("device noise did not degrade the histogram")
	}
	if noisy.Report == nil || noisy.Report.FidelityEstimate >= 1 {
		t.Errorf("expected a lossy fidelity budget, got %+v", noisy.Report)
	}
}

// TestExplicitNoiseWinsOverAnnotation: WithNoise — even the zero model —
// suppresses the LevelNoise device model.
func TestExplicitNoiseWinsOverAnnotation(t *testing.T) {
	proc, err := NewCompactProcessor(1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := ghzQutritCircuit(t, 3)
	res, err := proc.SubmitOne(c, WithTranspile(transpile.LevelNoise), WithNoise(noise.Model{}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Noise.IsZero() {
		t.Fatalf("explicit zero noise overridden by annotation: %+v", res.Noise)
	}
	explicit := noise.Model{Damping: 0.01}
	res2, err := proc.SubmitOne(c, WithTranspile(transpile.LevelNoise),
		WithNoise(explicit), WithBackend(DensityMatrix))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Noise != explicit {
		t.Fatalf("explicit model not applied: %+v", res2.Noise)
	}
}

// TestWithDeviceTargetsJobDevice: a per-job device overrides the
// processor's for placement, routing, and the digest.
func TestWithDeviceTargetsJobDevice(t *testing.T) {
	proc, err := NewCompactProcessor(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := ghzQutritCircuit(t, 3)
	single := arch.ForecastDeviceTrimmed(1, 3)
	res, err := proc.SubmitOne(c, WithDevice(single))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.State.Space().NumWires(); got != single.NumModes() {
		t.Fatalf("physical register %d wires, override device has %d modes", got, single.NumModes())
	}
	if res.Report.SwapsInserted != 0 {
		t.Errorf("single-cavity override still inserted %d swaps", res.Report.SwapsInserted)
	}
	// Wider than the override device: error, never panic.
	if _, err := proc.SubmitOne(ghzQutritCircuit(t, 4), WithDevice(arch.ForecastDeviceTrimmed(1, 2))); err == nil {
		t.Error("4 wires on a 2-mode device accepted")
	}
}

// TestTranspileMatchesSubmit: Processor.Transpile reproduces the exact
// compilation artifacts of an unseeded submission.
func TestTranspileMatchesSubmit(t *testing.T) {
	proc, err := NewCompactProcessor(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := ghzQutritCircuit(t, 4)
	lowered, err := proc.Transpile(c, WithTranspile(transpile.LevelNative))
	if err != nil {
		t.Fatal(err)
	}
	res, err := proc.SubmitOne(c, WithTranspile(transpile.LevelNative))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lowered.Mapping.LogicalToMode, res.Mapping.LogicalToMode) {
		t.Errorf("mappings differ: %v vs %v", lowered.Mapping.LogicalToMode, res.Mapping.LogicalToMode)
	}
	if lowered.Report.SwapsInserted != res.Report.SwapsInserted ||
		lowered.Report.DurationSec != res.Report.DurationSec {
		t.Errorf("reports differ: %+v vs %+v", lowered.Report, res.Report)
	}
	if Fingerprint(lowered.Physical) == Fingerprint(c) {
		t.Error("native lowering left the circuit unchanged")
	}
}

// TestOptionsDigestTranspileFields: device, level, and the explicit
// noise flag all separate digests.
func TestOptionsDigestTranspileFields(t *testing.T) {
	base := OptionsDigest()
	if OptionsDigest(WithTranspile(transpile.LevelNative)) == base {
		t.Error("level not in digest")
	}
	dev := arch.ForecastDeviceTrimmed(1, 3)
	if OptionsDigest(WithDevice(dev)) == base {
		t.Error("device not in digest")
	}
	if OptionsDigest(WithDevice(dev)) != OptionsDigest(WithDevice(arch.ForecastDeviceTrimmed(1, 3))) {
		t.Error("equal devices digest differently")
	}
	if OptionsDigest(WithDevice(dev)) == OptionsDigest(WithDevice(arch.ForecastDeviceTrimmed(2, 3))) {
		t.Error("different devices share a digest")
	}
	// Explicit zero noise is result-determining at LevelNoise.
	if OptionsDigest(WithTranspile(transpile.LevelNoise)) ==
		OptionsDigest(WithTranspile(transpile.LevelNoise), WithNoise(noise.Model{})) {
		t.Error("explicit-noise flag not in digest")
	}
}

// TestPlanCacheSeparatesTranspileFingerprints: one circuit and model
// under two transpile fingerprints must compile two plans.
func TestPlanCacheSeparatesTranspileFingerprints(t *testing.T) {
	c := randomQutritCircuit(t, 4242, 2)
	model := noise.Model{Damping: 0.01}
	p1, err := planFor(c, model, 11)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := planFor(c, model, 22)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("distinct transpile fingerprints shared one plan")
	}
	p3, err := planFor(c, model, 11)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p3 {
		t.Error("same transpile fingerprint did not re-hit the cached plan")
	}
}
