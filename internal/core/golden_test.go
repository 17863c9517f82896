package core

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"quditkit/internal/golden"
)

// TestTrackedGHZGolden pins the tracked job of the benchmarks — a
// 4-qutrit GHZ on NewCompactProcessor(2, 2, 9) under the device noise
// model for qutrits, 512 shots — on every backend at three seeds: the
// Counts as text, and the trajectory MeanProbs and the density-matrix
// diagonal as float64 bits. The statevector backend cannot apply noise
// and runs the job noiselessly. A change to any engine that moves one
// bit of these fails here (see internal/golden).
func TestTrackedGHZGolden(t *testing.T) {
	proc, err := NewCompactProcessor(2, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	model, err := proc.NoiseModelForDim(3)
	if err != nil {
		t.Fatal(err)
	}
	c := ghzQutritCircuit(t, 4)
	for _, kind := range []BackendKind{Statevector, DensityMatrix, Trajectory} {
		for _, seed := range []int64{7, 8, 9} {
			opts := []RunOption{WithBackend(kind), WithShots(512), WithSeed(seed)}
			if kind != Statevector {
				opts = append(opts, WithNoise(model))
			}
			res, err := proc.SubmitOne(c, opts...)
			if err != nil {
				t.Fatalf("%s seed %d: %v", kind, seed, err)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "# tracked 4-qutrit GHZ, %s backend, seed %d, 512 shots\ncounts\n", kind, seed)
			keys := make([]string, 0, len(res.Counts))
			for k := range res.Counts {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "%s %d\n", k, res.Counts[k])
			}
			switch kind {
			case Trajectory:
				b.WriteString("mean_probs\n")
				for i, p := range res.meanProbs {
					fmt.Fprintf(&b, "%d %s\n", i, golden.Bits(p))
				}
			case DensityMatrix:
				b.WriteString("density_diagonal\n")
				for i := 0; i < res.Density.Dim(); i++ {
					fmt.Fprintf(&b, "%d %s\n", i, golden.Bits(real(res.Density.At(i, i))))
				}
			}
			name := fmt.Sprintf("%s-seed%d.golden", kind, seed)
			golden.Check(t, filepath.Join("testdata", "ghz", name), []byte(b.String()))
		}
	}
}
