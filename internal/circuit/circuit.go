// Package circuit provides the circuit intermediate representation of
// quditkit: ordered gate applications on a mixed-radix register, ASAP
// moment scheduling, resource counting, and execution backends (pure
// state-vector, noisy density-matrix, and stochastic quantum-trajectory
// unraveling).
package circuit

import (
	"fmt"
	"strings"

	"quditkit/internal/density"
	"quditkit/internal/gates"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
)

// Op is one gate application in a circuit.
type Op struct {
	Gate    gates.Gate
	Targets []int
}

// Circuit is an ordered sequence of gate applications on a register.
type Circuit struct {
	space *hilbert.Space
	ops   []Op
}

// New returns an empty circuit on the given register.
func New(dims hilbert.Dims) (*Circuit, error) {
	sp, err := hilbert.NewSpace(dims)
	if err != nil {
		return nil, err
	}
	return &Circuit{space: sp}, nil
}

// Dims returns the register dimensions.
func (c *Circuit) Dims() hilbert.Dims { return c.space.Dims() }

// NumWires returns the register width.
func (c *Circuit) NumWires() int { return c.space.NumWires() }

// Dim returns the local dimension of wire w.
func (c *Circuit) Dim(w int) int { return c.space.Dim(w) }

// Ops returns a copy of the op list.
func (c *Circuit) Ops() []Op {
	out := make([]Op, len(c.ops))
	copy(out, c.ops)
	return out
}

// Op returns the i-th gate application without copying the op list.
// Its Targets alias the circuit's, exactly as those of Ops do.
func (c *Circuit) Op(i int) Op { return c.ops[i] }

// Len returns the number of gate applications.
func (c *Circuit) Len() int { return len(c.ops) }

// Append validates and adds a gate application.
func (c *Circuit) Append(g gates.Gate, targets ...int) error {
	if len(targets) != g.Arity() {
		return fmt.Errorf("circuit: gate %s arity %d got %d targets", g.Name, g.Arity(), len(targets))
	}
	if err := c.space.CheckTargets(targets); err != nil {
		return err
	}
	for i, t := range targets {
		if c.space.Dim(t) != g.Dims[i] {
			return fmt.Errorf("circuit: gate %s slot %d wants dim %d, wire %d has dim %d",
				g.Name, i, g.Dims[i], t, c.space.Dim(t))
		}
	}
	ts := make([]int, len(targets))
	copy(ts, targets)
	c.ops = append(c.ops, Op{Gate: g, Targets: ts})
	return nil
}

// MustAppend is Append for statically valid applications; it panics on
// error, indicating a programmer mistake in circuit construction code.
func (c *Circuit) MustAppend(g gates.Gate, targets ...int) {
	if err := c.Append(g, targets...); err != nil {
		panic(err)
	}
}

// Compose appends all ops of other (which must share dims) to c.
func (c *Circuit) Compose(other *Circuit) error {
	if !c.space.Dims().Equal(other.space.Dims()) {
		return fmt.Errorf("circuit: cannot compose over dims %v and %v", c.space.Dims(), other.space.Dims())
	}
	c.ops = append(c.ops, other.Ops()...)
	return nil
}

// Inverse returns the adjoint circuit (reversed op order, daggered gates).
func (c *Circuit) Inverse() *Circuit {
	inv := &Circuit{space: c.space, ops: make([]Op, 0, len(c.ops))}
	for i := len(c.ops) - 1; i >= 0; i-- {
		op := c.ops[i]
		ts := make([]int, len(op.Targets))
		copy(ts, op.Targets)
		inv.ops = append(inv.ops, Op{Gate: op.Gate.Dagger(), Targets: ts})
	}
	return inv
}

// Repeat returns a circuit with c's ops repeated n times.
func (c *Circuit) Repeat(n int) *Circuit {
	out := &Circuit{space: c.space, ops: make([]Op, 0, n*len(c.ops))}
	for i := 0; i < n; i++ {
		out.ops = append(out.ops, c.Ops()...)
	}
	return out
}

// Moments greedily schedules ops into ASAP layers: an op lands in the
// first moment after every earlier op that shares one of its wires.
// The returned slices contain op indices.
func (c *Circuit) Moments() [][]int {
	lastMoment := make([]int, c.space.NumWires())
	for i := range lastMoment {
		lastMoment[i] = -1
	}
	var moments [][]int
	for i, op := range c.ops {
		m := 0
		for _, t := range op.Targets {
			if lastMoment[t]+1 > m {
				m = lastMoment[t] + 1
			}
		}
		for len(moments) <= m {
			moments = append(moments, nil)
		}
		moments[m] = append(moments[m], i)
		for _, t := range op.Targets {
			lastMoment[t] = m
		}
	}
	return moments
}

// Depth returns the number of ASAP moments.
func (c *Circuit) Depth() int { return len(c.Moments()) }

// CountByArity returns gate counts keyed by arity (1 = single-qudit, ...).
func (c *Circuit) CountByArity() map[int]int {
	out := make(map[int]int)
	for _, op := range c.ops {
		out[op.Gate.Arity()]++
	}
	return out
}

// GateCounts returns counts keyed by gate name.
func (c *Circuit) GateCounts() map[string]int {
	out := make(map[string]int, len(c.ops))
	for _, op := range c.ops {
		out[op.Gate.Name]++
	}
	return out
}

// String renders a compact op listing for debugging.
func (c *Circuit) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "circuit on %v, %d ops, depth %d\n", c.space.Dims(), len(c.ops), c.Depth())
	for i, op := range c.ops {
		fmt.Fprintf(&sb, "%4d: %-18s %v\n", i, op.Gate.Name, op.Targets)
	}
	return sb.String()
}

// RunDensity executes the circuit on a fresh |0...0><0...0| density matrix
// under the given noise model and returns the final mixed state.
//
// Gate noise channels are applied to each touched wire after each gate;
// when the model has idle rates, idle channels are applied to untouched
// wires once per ASAP moment. Execution goes through a compiled Plan, so
// the noise channels are resolved once instead of rebuilt per gate.
func (c *Circuit) RunDensity(model noise.Model) (*density.DM, error) {
	p, err := c.Compile(model)
	if err != nil {
		return nil, err
	}
	return p.RunDensity()
}
