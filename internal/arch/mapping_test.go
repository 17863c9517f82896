package arch

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refMappingCost is the objective as it was evaluated before the cost
// table: a fresh usage slice and a full device scan for the best T1 on
// every call. It is the reference the table-driven path must match bit
// for bit.
func refMappingCost(dev Device, edges []InteractionEdge, assign []int) float64 {
	var cost float64
	usage := make([]float64, len(assign))
	for _, e := range edges {
		cost += e.Weight * commCost(dev.Distance(assign[e.U], assign[e.V]))
		usage[e.U] += e.Weight
		usage[e.V] += e.Weight
	}
	for q, mode := range assign {
		p, err := dev.ModeParams(mode)
		if err != nil {
			cost += math.Inf(1)
			continue
		}
		best := 0.0
		for _, c := range dev.Cavities {
			for _, m := range c.Modes {
				if m.T1Sec > best {
					best = m.T1Sec
				}
			}
		}
		cost += usage[q] * (best/p.T1Sec - 1)
	}
	return cost
}

// refMapNoiseAware is the annealer as it ran before the cost table:
// refMappingCost per step and a map for mode occupancy.
func refMapNoiseAware(rng *rand.Rand, dev Device, numLogical int, edges []InteractionEdge, opts MappingOptions) Mapping {
	nModes := dev.NumModes()
	opts = opts.withDefaults()
	degree := make([]float64, numLogical)
	for _, e := range edges {
		degree[e.U] += e.Weight
		degree[e.V] += e.Weight
	}
	assign := greedyPlace(degree)
	cost := refMappingCost(dev, edges, assign)
	best := append([]int(nil), assign...)
	bestCost := cost
	occupied := make(map[int]int, numLogical)
	for q, m := range assign {
		occupied[m] = q
	}
	temp := opts.StartTemp
	cool := math.Pow(1e-3/opts.StartTemp, 1/float64(opts.Iterations))
	for it := 0; it < opts.Iterations; it++ {
		q := rng.Intn(numLogical)
		newMode := rng.Intn(nModes)
		oldMode := assign[q]
		if newMode == oldMode {
			continue
		}
		other, taken := occupied[newMode]
		assign[q] = newMode
		if taken {
			assign[other] = oldMode
		}
		newCost := refMappingCost(dev, edges, assign)
		if newCost <= cost || rng.Float64() < math.Exp((cost-newCost)/temp) {
			cost = newCost
			delete(occupied, oldMode)
			occupied[newMode] = q
			if taken {
				occupied[oldMode] = other
			}
			if cost < bestCost {
				bestCost = cost
				copy(best, assign)
			}
		} else {
			assign[q] = oldMode
			if taken {
				assign[other] = newMode
			}
		}
		temp *= cool
	}
	return Mapping{LogicalToMode: best, Cost: bestCost}
}

// randomDevice trims a forecast chain to modes per cavity and gives
// every mode its own T1, so the decoherence term is live.
func randomDevice(rng *rand.Rand, cavities, modes int) Device {
	dev := ForecastDeviceTrimmed(cavities, modes)
	for c := range dev.Cavities {
		for m := range dev.Cavities[c].Modes {
			dev.Cavities[c].Modes[m].T1Sec = 1e-3 * (0.3 + rng.Float64())
		}
	}
	return dev
}

// randomEdges draws up to 3n weighted edges (duplicates allowed) on n
// qudits, with integer weights as CircuitEdges produces and fractional
// ones as direct callers may pass.
func randomEdges(rng *rand.Rand, n int) []InteractionEdge {
	if n < 2 {
		return nil
	}
	edges := make([]InteractionEdge, rng.Intn(3*n+1))
	for i := range edges {
		u := rng.Intn(n)
		v := (u + 1 + rng.Intn(n-1)) % n
		w := float64(1 + rng.Intn(4))
		if rng.Intn(2) == 0 {
			w = 5 * rng.Float64()
		}
		edges[i] = InteractionEdge{U: u, V: v, Weight: w}
	}
	return edges
}

func TestMapNoiseAwareMatchesReference(t *testing.T) {
	gen := rand.New(rand.NewSource(2506))
	for cavities := 1; cavities <= 4; cavities++ {
		for modes := 1; modes <= 3; modes++ {
			for trial := 0; trial < 6; trial++ {
				dev := randomDevice(gen, cavities, modes)
				n := 1 + gen.Intn(dev.NumModes())
				edges := randomEdges(gen, n)
				seed := gen.Int63()
				opts := MappingOptions{Iterations: 50 + gen.Intn(400)}
				got, err := MapNoiseAware(rand.New(rand.NewSource(seed)), dev, n, edges, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := refMapNoiseAware(rand.New(rand.NewSource(seed)), dev, n, edges, opts)
				if !reflect.DeepEqual(got.LogicalToMode, want.LogicalToMode) ||
					math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
					t.Fatalf("%dx%d n=%d seed=%d: got %v cost %v, reference %v cost %v",
						cavities, modes, n, seed, got.LogicalToMode, got.Cost, want.LogicalToMode, want.Cost)
				}
				// MappingCost goes through the same table; it must
				// agree with the reference on arbitrary assignments,
				// off-device modes included.
				assign := make([]int, n)
				for q := range assign {
					assign[q] = gen.Intn(dev.NumModes()+2) - 1
				}
				if g, w := MappingCost(dev, edges, assign), refMappingCost(dev, edges, assign); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("MappingCost(%v) = %v, reference %v", assign, g, w)
				}
			}
		}
	}
}

func TestMapNoiseAwareAllocsIndependentOfIterations(t *testing.T) {
	gen := rand.New(rand.NewSource(7))
	dev := randomDevice(gen, 3, 3)
	edges := randomEdges(gen, 6)
	allocs := func(iterations int) float64 {
		return testing.AllocsPerRun(20, func() {
			rng := rand.New(rand.NewSource(1))
			if _, err := MapNoiseAware(rng, dev, 6, edges, MappingOptions{Iterations: iterations}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(10), allocs(10000)
	if long != short {
		t.Errorf("allocs per call grew with iterations: %v at 10, %v at 10000", short, long)
	}
}
