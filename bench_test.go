package quditkit_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"quditkit/internal/arch"
	"quditkit/internal/circuit"
	"quditkit/internal/core"
	"quditkit/internal/gates"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
	"quditkit/internal/qmath"
	"quditkit/internal/state"
	"quditkit/internal/synth"
)

// benchExperiment runs one registry experiment per iteration and logs its
// table (visible with -v), so `go test -bench` regenerates the paper
// artifacts while timing them.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := core.FindExperiment(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		// Same per-experiment stream derivation as cmd/quditbench, so the
		// benchmarked tables match the CLI's output for seed 1.
		rng := rand.New(rand.NewSource(core.DeriveSeed(1, id)))
		tab, err := exp.Run(rng, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab.String())
		}
	}
}

// BenchmarkE1SQEDResources regenerates Table I row 1 (sQED 2D lattice
// resource estimate).
func BenchmarkE1SQEDResources(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2EncodingNoise regenerates the qudit-vs-qubit noise tolerance
// comparison ([11]).
func BenchmarkE2EncodingNoise(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3NDAR regenerates Table I row 2 (NDAR-QAOA coloring).
func BenchmarkE3NDAR(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4Synthesis regenerates the d<=8 synthesis fidelity claim
// ([20]).
func BenchmarkE4Synthesis(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5QRAC regenerates the 50+-node QRAC scaling claim ([22],[23]).
func BenchmarkE5QRAC(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6QRC regenerates Table I row 3 (QRC vs classical reservoir).
func BenchmarkE6QRC(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7ShotNoise regenerates the QRC sampling-overhead challenge
// ([26]).
func BenchmarkE7ShotNoise(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8Capacity regenerates the §I forecast capacity table.
func BenchmarkE8Capacity(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9Tomography regenerates the reservoir-tomography
// small-training claim ([28]).
func BenchmarkE9Tomography(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10Constraints regenerates the constraint-survival comparison
// ([18]).
func BenchmarkE10Constraints(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11CSUM regenerates the CSUM engineering-cost table.
func BenchmarkE11CSUM(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12RandomizedBenchmarking regenerates the cavity-qudit RB
// claim ([9]).
func BenchmarkE12RandomizedBenchmarking(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13WaveformClassification regenerates the analog-reservoir
// signal classification claim ([27]).
func BenchmarkE13WaveformClassification(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14Swap3D regenerates the 3D-via-swap-networks extension
// (§II.A).
func BenchmarkE14Swap3D(b *testing.B) { benchExperiment(b, "E14") }

// --- Ablation benches (design choices called out in DESIGN.md §5) ---

// BenchmarkAblationApplyStride measures the strided gather/scatter gate
// application used by the simulator.
func BenchmarkAblationApplyStride(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dims := hilbert.Uniform(6, 3) // 729-dim register
	amps := qmath.RandomState(rng, 729)
	v, err := state.FromAmplitudes(dims, amps)
	if err != nil {
		b.Fatal(err)
	}
	g := gates.CSUM(3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Apply(g, 2, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationApplyKron measures the naive alternative: embedding
// the gate in a full-register matrix and multiplying.
func BenchmarkAblationApplyKron(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sp := hilbert.MustSpace(hilbert.Uniform(6, 3))
	amps := qmath.RandomState(rng, sp.Total())
	g := gates.CSUM(3, 3)
	// Build the embedded 729x729 matrix once per iteration to charge the
	// full cost of the strategy.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full := qmath.NewMatrix(sp.Total(), sp.Total())
		offsets := sp.TargetOffsets([]int{2, 4})
		sp.SubspaceIter([]int{2, 4}, func(base int) {
			for r := 0; r < 9; r++ {
				for c := 0; c < 9; c++ {
					full.Set(base+offsets[r], base+offsets[c], g.Matrix.At(r, c))
				}
			}
		})
		amps = full.MulVec(amps)
	}
}

// BenchmarkAblationDensityExact measures exact density-matrix execution
// of a noisy qutrit GHZ circuit through the DensityMatrix backend.
func BenchmarkAblationDensityExact(b *testing.B) {
	c := ghzCircuit(b, 3)
	spec := core.ExecSpec{Noise: noise.Model{Depol2: 0.02, Damping: 0.01}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (core.DensityMatrixBackend{}).Execute(c, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// warmPlanCache makes plan-cache state deterministic for a tracked
// benchmark: it resets the process-wide cache (so plans compiled by
// whatever benchmarks ran earlier in the same process can't leak in)
// and then runs warm() once so the measured loop sees a uniformly warm
// cache. Without this, the first b.Run variant of a benchmark paid the
// compile miss that later variants didn't, skewing cross-variant
// comparisons by whichever ordering the -bench filter happened to pick.
func warmPlanCache(b *testing.B, warm func() error) {
	b.Helper()
	core.PlanCacheReset()
	if err := warm(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
}

// BenchmarkAblationTrajectories measures the trajectory-averaged
// alternative at 100 shots through the Trajectory backend.
func BenchmarkAblationTrajectories(b *testing.B) {
	c := ghzCircuit(b, 3)
	spec := core.ExecSpec{
		Noise: noise.Model{Depol2: 0.02, Damping: 0.01},
		Shots: 100,
		Seed:  1,
	}
	warmPlanCache(b, func() error {
		_, err := (core.TrajectoryBackend{}).Execute(c, spec)
		return err
	})
	for i := 0; i < b.N; i++ {
		if _, err := (core.TrajectoryBackend{}).Execute(c, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitTrajectories tracks the trajectory worker pool: 512
// shots of a noisy 4-qutrit GHZ job submitted through the Processor at
// increasing pool widths. Counts are worker-count-invariant, so the
// variants do identical logical work and differ only in parallelism.
func BenchmarkSubmitTrajectories(b *testing.B) {
	proc, err := core.NewCompactProcessor(2, 2, 9)
	if err != nil {
		b.Fatal(err)
	}
	model, err := proc.NoiseModelForDim(3)
	if err != nil {
		b.Fatal(err)
	}
	c := ghzCircuit(b, 4)
	submit := func(workers, batch int) (core.Result, error) {
		opts := []core.RunOption{
			core.WithBackend(core.Trajectory),
			core.WithNoise(model),
			core.WithShots(512),
			core.WithSeed(7),
			core.WithWorkers(workers),
		}
		if batch > 1 {
			opts = append(opts, core.WithShotBatch(batch))
		}
		return proc.SubmitOne(c, opts...)
	}
	workerSet := []int{1, 4, runtime.NumCPU()}
	for _, workers := range workerSet {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			warmPlanCache(b, func() error {
				_, err := submit(workers, 1)
				return err
			})
			for i := 0; i < b.N; i++ {
				res, err := submit(workers, 1)
				if err != nil {
					b.Fatal(err)
				}
				if res.Counts.Total() != 512 {
					b.Fatalf("counts total %d", res.Counts.Total())
				}
			}
		})
	}
}

// BenchmarkSubmitTrajectoriesBatched is the same tracked job with shot
// batching enabled: identical logical work and — by the byte-identity
// contract — identical counts, so the series isolates what batching
// buys at each pool width. Batch sizes match the differential grid.
func BenchmarkSubmitTrajectoriesBatched(b *testing.B) {
	proc, err := core.NewCompactProcessor(2, 2, 9)
	if err != nil {
		b.Fatal(err)
	}
	model, err := proc.NoiseModelForDim(3)
	if err != nil {
		b.Fatal(err)
	}
	c := ghzCircuit(b, 4)
	want, err := proc.SubmitOne(c,
		core.WithBackend(core.Trajectory),
		core.WithNoise(model),
		core.WithShots(512),
		core.WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		for _, batch := range []int{8, 32} {
			workers, batch := workers, batch
			b.Run(fmt.Sprintf("workers=%d/batch=%d", workers, batch), func(b *testing.B) {
				b.ReportAllocs()
				submit := func() (core.Result, error) {
					return proc.SubmitOne(c,
						core.WithBackend(core.Trajectory),
						core.WithNoise(model),
						core.WithShots(512),
						core.WithSeed(7),
						core.WithWorkers(workers),
						core.WithShotBatch(batch))
				}
				warmPlanCache(b, func() error {
					res, err := submit()
					if err != nil {
						return err
					}
					for k, v := range want.Counts {
						if res.Counts[k] != v {
							b.Fatalf("batch=%d counts[%s] = %d, want %d", batch, k, res.Counts[k], v)
						}
					}
					return nil
				})
				for i := 0; i < b.N; i++ {
					if _, err := submit(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTranspileRoute measures the host work a job pays before its
// kernel runs: noise-aware placement annealing and swap routing of the
// 4-qutrit GHZ onto a 2-cavity, 2-mode chain at the default transpile
// level. Its allocs/op must not grow with the annealing iteration count.
func BenchmarkTranspileRoute(b *testing.B) {
	proc, err := core.NewCompactProcessor(2, 2, 9)
	if err != nil {
		b.Fatal(err)
	}
	c := ghzCircuit(b, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proc.Transpile(c, core.WithSeed(7)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitStatevectorShots tracks per-job result assembly: a
// 1,024-shot statevector 4-qutrit GHZ job through Processor.Submit with
// a warm plan cache, so transpile, sampling and the histogram are most
// of the cost.
func BenchmarkSubmitStatevectorShots(b *testing.B) {
	proc, err := core.NewCompactProcessor(2, 2, 9)
	if err != nil {
		b.Fatal(err)
	}
	c := ghzCircuit(b, 4)
	submit := func() (core.Result, error) {
		return proc.SubmitOne(c, core.WithShots(1024), core.WithSeed(7))
	}
	b.ReportAllocs()
	warmPlanCache(b, func() error {
		_, err := submit()
		return err
	})
	for i := 0; i < b.N; i++ {
		res, err := submit()
		if err != nil {
			b.Fatal(err)
		}
		if res.Counts.Total() != 1024 {
			b.Fatalf("counts total %d", res.Counts.Total())
		}
	}
}

// BenchmarkTrajectoryPlanShot measures one compiled noisy trajectory
// shot on a 4-qutrit GHZ circuit — the Plan engine's per-shot cost,
// which must stay allocation-free (allocs/op is the tracked number).
// Each shot reseeds an O(1) qmath.ShotSource, as the trajectory backend
// does.
func BenchmarkTrajectoryPlanShot(b *testing.B) {
	c := ghzCircuit(b, 4)
	model := noise.Model{Depol1: 1e-4, Depol2: 1e-3, Damping: 2e-3, Dephasing: 1e-3}
	plan, err := c.Compile(model)
	if err != nil {
		b.Fatal(err)
	}
	ws, err := plan.NewWorkspace()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(new(qmath.ShotSource))
	base := core.DeriveSeed(0, "bench-shot")
	var sampler qmath.CDFSampler
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Seed(base + int64(i))
		if _, err := plan.RunShot(ws, rng); err != nil {
			b.Fatal(err)
		}
		sampler.Load(ws.BornProbabilities())
		sampler.Draw(rng)
	}
}

// BenchmarkTrajectoryInterpretedShot is the legacy per-op interpreter
// on the identical workload, kept as the ablation baseline for the
// compiled-plan speedup recorded in BENCH_3.json.
func BenchmarkTrajectoryInterpretedShot(b *testing.B) {
	c := ghzCircuit(b, 4)
	model := noise.Model{Depol1: 1e-4, Depol2: 1e-3, Damping: 2e-3, Dephasing: 1e-3}
	rng := rand.New(new(qmath.ShotSource))
	base := core.DeriveSeed(0, "bench-shot")
	var sampler qmath.CDFSampler
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Seed(base + int64(i))
		v, err := c.RunTrajectory(rng, model)
		if err != nil {
			b.Fatal(err)
		}
		sampler.Load(v.Probabilities())
		sampler.Draw(rng)
	}
}

// BenchmarkAblationSNAPBlocks sweeps the SNAP-displacement block budget
// and logs the fidelity frontier.
func BenchmarkAblationSNAPBlocks(b *testing.B) {
	d := 4
	target := gates.Givens(d, 1, 2, math.Pi/5, 0.4).Matrix
	for i := 0; i < b.N; i++ {
		for _, blocks := range []int{2, d, 2 * d} {
			rng := rand.New(rand.NewSource(3))
			res, err := synth.SynthesizeSNAPDisplacement(rng, target, synth.SNAPDisplacementOptions{
				Blocks: blocks, Restarts: 2, MaxSweeps: 25,
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("blocks=%d fidelity=%.5f evals=%d", blocks, res.Fidelity, res.Evaluations)
			}
		}
	}
}

// BenchmarkAblationMappingAnnealed measures the noise-aware annealed
// placement against the identity placement on a ring workload.
func BenchmarkAblationMappingAnnealed(b *testing.B) {
	dev := arch.ForecastDevice(5)
	var edges []arch.InteractionEdge
	n := 10
	for i := 0; i < n; i++ {
		edges = append(edges, arch.InteractionEdge{U: i, V: (i + 1) % n, Weight: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		m, err := arch.MapNoiseAware(rng, dev, n, edges, arch.MappingOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			ident, err := arch.MapIdentity(dev, n)
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("annealed cost %.2f vs identity cost %.2f",
				m.Cost, arch.MappingCost(dev, edges, ident.LogicalToMode))
		}
	}
}

// BenchmarkAblationLindbladStep sweeps RK4 substep counts against the
// analytic decay solution and logs the error.
func BenchmarkAblationLindbladStep(b *testing.B) {
	d := 6
	kappa := 0.5
	a := gates.Lower(d).Scale(complex(math.Sqrt(kappa), 0))
	l, err := noise.NewSparseLindblad(qmath.NewMatrix(d, d), []*qmath.Matrix{a})
	if err != nil {
		b.Fatal(err)
	}
	rho0 := qmath.NewMatrix(d, d)
	rho0.Set(4, 4, 1)
	nOp := gates.Number(d)
	want := 4 * math.Exp(-kappa*2.0)
	for i := 0; i < b.N; i++ {
		for _, steps := range []int{4, 16, 64, 256} {
			out, err := l.Evolve(2.0, steps, rho0)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				got := real(out.Mul(nOp).Trace())
				b.Logf("substeps=%-4d |<n>-exact| = %.2e", steps, math.Abs(got-want))
			}
		}
	}
}

// ghzCircuit builds an n-qutrit GHZ preparation circuit.
func ghzCircuit(b *testing.B, n int) *circuit.Circuit {
	b.Helper()
	c, err := circuit.New(hilbert.Uniform(n, 3))
	if err != nil {
		b.Fatal(err)
	}
	c.MustAppend(gates.DFT(3), 0)
	for i := 1; i < n; i++ {
		c.MustAppend(gates.CSUM(3, 3), 0, i)
	}
	return c
}
