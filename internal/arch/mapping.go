package arch

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"quditkit/internal/circuit"
)

// InteractionEdge is one weighted logical interaction: Weight counts how
// many two-qudit gates the application applies between logical qudits U
// and V.
type InteractionEdge struct {
	U, V   int
	Weight float64
}

// CircuitEdges extracts the weighted two-qudit interaction graph of a
// logical circuit — the input MapNoiseAware optimizes over. Edges are
// returned sorted by (U, V) so the extraction is deterministic; gates of
// arity other than 2 contribute nothing.
func CircuitEdges(c *circuit.Circuit) []InteractionEdge {
	weights := make(map[[2]int]float64)
	for _, op := range c.Ops() {
		if op.Gate.Arity() != 2 {
			continue
		}
		u, v := op.Targets[0], op.Targets[1]
		if u > v {
			u, v = v, u
		}
		weights[[2]int{u, v}]++
	}
	out := make([]InteractionEdge, 0, len(weights))
	for k, w := range weights {
		out = append(out, InteractionEdge{U: k[0], V: k[1], Weight: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Mapping assigns logical qudits to physical modes.
type Mapping struct {
	// LogicalToMode[q] is the flat mode index hosting logical qudit q.
	LogicalToMode []int
	// Cost is the objective value of the assignment (lower is better).
	Cost float64
}

// MappingOptions tunes the annealed search.
type MappingOptions struct {
	// Iterations of annealing moves; zero selects 2000.
	Iterations int
	// StartTemp is the initial annealing temperature; zero selects 1.0.
	StartTemp float64
}

func (o MappingOptions) withDefaults() MappingOptions {
	if o.Iterations == 0 {
		o.Iterations = 2000
	}
	if o.StartTemp == 0 {
		o.StartTemp = 1.0
	}
	return o
}

// commCost prices a two-qudit gate between two modes dist cavities
// apart: co-located gates cost 1, adjacent-cavity gates 2, and farther
// pairs pay 2 swaps per extra hop.
func commCost(dist int) float64 {
	switch {
	case dist == 0:
		return 1
	case dist == 1:
		return 2
	default:
		return 2 + 2*float64(dist-1)
	}
}

// costTable holds every term of the placement objective that does not
// depend on the assignment, so evaluating one assignment is a fixed walk
// of table lookups: no device scans and no allocation.
type costTable struct {
	edges  []InteractionEdge
	nModes int
	// comm[a*nModes+b] is commCost between flat modes a and b.
	comm []float64
	// usage[q] is the summed weight of the edges touching qudit q,
	// accumulated in edge order.
	usage []float64
	// excess[m] is best/T1(m) − 1: the decoherence price per unit of
	// usage of hosting a qudit on mode m, relative to the device's best
	// T1.
	excess []float64
}

func newCostTable(dev Device, numLogical int, edges []InteractionEdge) *costTable {
	n := dev.NumModes()
	t := &costTable{
		edges:  edges,
		nModes: n,
		comm:   make([]float64, n*n),
		usage:  make([]float64, numLogical),
		excess: make([]float64, n),
	}
	cavityOf := make([]int, 0, n)
	best := 0.0
	for c, cav := range dev.Cavities {
		for _, m := range cav.Modes {
			cavityOf = append(cavityOf, c)
			if m.T1Sec > best {
				best = m.T1Sec
			}
		}
	}
	for a, ca := range cavityOf {
		for b, cb := range cavityOf {
			dist := ca - cb
			if dist < 0 {
				dist = -dist
			}
			t.comm[a*n+b] = commCost(dist)
		}
	}
	m := 0
	for _, cav := range dev.Cavities {
		for _, p := range cav.Modes {
			t.excess[m] = best/p.T1Sec - 1
			m++
		}
	}
	for _, e := range edges {
		t.usage[e.U] += e.Weight
		t.usage[e.V] += e.Weight
	}
	return t
}

// cost evaluates the objective of an on-device assignment: the
// swap-weighted communication of every edge in edge order, then each
// qudit's decoherence penalty in qudit order.
func (t *costTable) cost(assign []int) float64 {
	var cost float64
	for _, e := range t.edges {
		cost += e.Weight * t.comm[assign[e.U]*t.nModes+assign[e.V]]
	}
	for q, mode := range assign {
		cost += t.usage[q] * t.excess[mode]
	}
	return cost
}

// MappingCost evaluates the noise-aware objective of an assignment:
// total swap-weighted communication plus the decoherence penalty of
// hosting heavily used qudits on lossier modes. An assignment that uses
// a mode outside the device costs +Inf.
func MappingCost(dev Device, edges []InteractionEdge, assign []int) float64 {
	n := dev.NumModes()
	for _, mode := range assign {
		if mode < 0 || mode >= n {
			return math.Inf(1)
		}
	}
	return newCostTable(dev, len(assign), edges).cost(assign)
}

// MapIdentity places logical qudit q on flat mode q.
func MapIdentity(dev Device, numLogical int) (Mapping, error) {
	if numLogical > dev.NumModes() {
		return Mapping{}, fmt.Errorf("%w: %d logical qudits exceed %d modes",
			ErrBadDevice, numLogical, dev.NumModes())
	}
	assign := make([]int, numLogical)
	for i := range assign {
		assign[i] = i
	}
	return Mapping{LogicalToMode: assign, Cost: math.NaN()}, nil
}

// MapNoiseAware searches for a low-cost placement with a greedy
// construction followed by simulated annealing over pairwise relocations.
// The objective is MappingCost: swap-weighted communication plus T1-aware
// decoherence penalties — the qudit noise-aware mapping pass missing from
// qubit-centric toolkits.
func MapNoiseAware(rng *rand.Rand, dev Device, numLogical int, edges []InteractionEdge, opts MappingOptions) (Mapping, error) {
	if err := dev.Validate(); err != nil {
		return Mapping{}, err
	}
	nModes := dev.NumModes()
	if numLogical > nModes {
		return Mapping{}, fmt.Errorf("%w: %d logical qudits exceed %d modes",
			ErrBadDevice, numLogical, nModes)
	}
	for _, e := range edges {
		if e.U < 0 || e.U >= numLogical || e.V < 0 || e.V >= numLogical || e.U == e.V {
			return Mapping{}, fmt.Errorf("%w: bad edge (%d,%d)", ErrBadDevice, e.U, e.V)
		}
	}
	opts = opts.withDefaults()

	// Every step re-evaluates the whole objective from one table, with
	// the arithmetic of MappingCost in its order, so the rng draws, the
	// acceptance decisions and the returned Cost are those of a fresh
	// MappingCost call per step.
	table := newCostTable(dev, numLogical, edges)
	assign := greedyPlace(table.usage)
	cost := table.cost(assign)

	best := append([]int(nil), assign...)
	bestCost := cost
	occupant := make([]int, nModes) // mode -> logical qudit, -1 when free
	for m := range occupant {
		occupant[m] = -1
	}
	for q, m := range assign {
		occupant[m] = q
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
		other := occupant[newMode]
		assign[q] = newMode
		if other >= 0 {
			assign[other] = oldMode
		}
		newCost := table.cost(assign)
		if newCost <= cost || rng.Float64() < math.Exp((cost-newCost)/temp) {
			cost = newCost
			occupant[newMode], occupant[oldMode] = q, other
			if cost < bestCost {
				bestCost = cost
				copy(best, assign)
			}
		} else {
			// revert
			assign[q] = oldMode
			if other >= 0 {
				assign[other] = newMode
			}
		}
		temp *= cool
	}
	return Mapping{LogicalToMode: best, Cost: bestCost}, nil
}

// greedyPlace orders logical qudits by interaction degree and walks the
// device's modes in chain order, so strongly coupled qudits land in the
// same or adjacent cavities. degree[q] is qudit q's summed edge weight.
func greedyPlace(degree []float64) []int {
	numLogical := len(degree)
	order := make([]int, numLogical)
	for i := range order {
		order[i] = i
	}
	// Insertion sort by descending degree (numLogical is small).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && degree[order[j]] > degree[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	assign := make([]int, numLogical)
	for slot, q := range order {
		assign[q] = slot
	}
	return assign
}
