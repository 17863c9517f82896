package circuit

import (
	"fmt"
	"math/rand"

	"quditkit/internal/density"
	"quditkit/internal/hilbert"
	"quditkit/internal/noise"
	"quditkit/internal/qmath"
	"quditkit/internal/state"
)

// KernelKind classifies how a compiled op applies its unitary to the
// amplitude vector. Classification happens once, at Compile time, so the
// per-shot executor dispatches straight to the cheapest kernel instead
// of re-deriving gate structure on every application.
type KernelKind uint8

const (
	// KernelDiagonal multiplies target amplitudes by a phase vector in
	// place: O(D), no scratch (Z, controlled-phase, SNAP).
	KernelDiagonal KernelKind = iota
	// KernelMonomial permutes target amplitudes with per-entry phases —
	// one product per amplitude (X, X^k, CSUM, Weyl operators).
	KernelMonomial
	// KernelControlled applies a block-diagonal gate one control value
	// at a time, skipping identity blocks entirely (controlled-U).
	KernelControlled
	// KernelDense is the general gather/multiply/scatter, with unrolled
	// inner loops for joint target dimensions up to 4.
	KernelDense
)

// String returns the kernel's stable name.
func (k KernelKind) String() string {
	switch k {
	case KernelDiagonal:
		return "diagonal"
	case KernelMonomial:
		return "monomial"
	case KernelControlled:
		return "controlled"
	case KernelDense:
		return "dense"
	default:
		return fmt.Sprintf("KernelKind(%d)", int(k))
	}
}

// coset holds the free-wire (non-target) iteration data of one target
// set: iterating it enumerates exactly the bases that
// hilbert.Space.SubspaceIter would, in the same order, but from
// precomputed tables and with an incrementally maintained base index.
type coset struct {
	dims    []int
	strides []int
	count   int
}

func newCoset(sp *hilbert.Space, targets []int) coset {
	isTarget := make([]bool, sp.NumWires())
	for _, t := range targets {
		isTarget[t] = true
	}
	cs := coset{count: 1}
	for w := 0; w < sp.NumWires(); w++ {
		if isTarget[w] {
			continue
		}
		cs.dims = append(cs.dims, sp.Dim(w))
		cs.strides = append(cs.strides, sp.Stride(w))
		cs.count *= sp.Dim(w)
	}
	return cs
}

// forEachBase calls fn with every coset base index, lexicographically
// over the free digits (last free wire fastest) — the SubspaceIter
// order, which the interpreted execution paths share, so both engines
// accumulate floating-point sums in the same order. digits is a caller
// scratch buffer of length >= len(cs.dims).
func (cs *coset) forEachBase(digits []int, fn func(base int)) {
	n := len(cs.dims)
	for i := 0; i < n; i++ {
		digits[i] = 0
	}
	base := 0
	for c := 0; c < cs.count; c++ {
		fn(base)
		for i := n - 1; i >= 0; i-- {
			digits[i]++
			base += cs.strides[i]
			if digits[i] < cs.dims[i] {
				break
			}
			digits[i] = 0
			base -= cs.dims[i] * cs.strides[i]
		}
	}
}

// planBlock is one control-value block of a KernelControlled op.
type planBlock struct {
	kind KernelKind // KernelDiagonal, KernelMonomial, or KernelDense
	skip bool       // identity block: no work at all
	diag []complex128
	src  []int
	coef []complex128
	mat  *qmath.Matrix
}

// planOp is one compiled gate application: validated once, with target
// offsets, coset tables, kernel payload, and resolved noise channels all
// precomputed so executing it allocates nothing.
type planOp struct {
	name    string
	targets []int
	dim     int   // joint target dimension
	offsets []int // flat-index offsets of the joint target digits
	free    coset
	kind    KernelKind

	diag   []complex128  // KernelDiagonal
	src    []int         // KernelMonomial: output digit i reads input digit src[i]
	coef   []complex128  // KernelMonomial: ... scaled by coef[i]
	blocks []planBlock   // KernelControlled, one per control digit
	mat    *qmath.Matrix // KernelDense, and the density-matrix path

	// stages is non-nil for fused kernels: the chained payloads of the
	// logical ops this kernel absorbed, in application order. kind is
	// then the lattice join of the stage kinds.
	stages []fusedStage

	noise []*plannedChannel // resolved gate-noise channels, application order
}

// Plan is a circuit compiled for repeated execution: ops validated once,
// kernels classified, noise channels resolved, and all index arithmetic
// precomputed. A Plan is immutable after Compile and safe for concurrent
// use; all mutable per-execution state lives in a Workspace, so one Plan
// drives a whole worker pool.
type Plan struct {
	space    *hilbert.Space
	model    noise.Model
	ops      []planOp
	maxDim   int               // largest joint target dimension across ops
	moments  [][]int           // ASAP moments, resolved iff the model has idle rates
	idle     [][]noise.Channel // per-wire idle channels for the density path
	numOps   int
	hasNoise bool
}

// Compile validates every op once and lowers the circuit into a reusable
// execution Plan for the given noise model: per-op kernel classification
// (diagonal, monomial/permutation, controlled, dense with small-dim
// specializations), precomputed target offsets and coset tables, and
// per-op resolved noise channels (so the per-shot path never rebuilds
// Kraus matrices). Compile once, execute many: the same Plan serves any
// number of workspaces and shots concurrently.
//
// Compile fuses adjacent same-target gate runs into chained kernels
// (see fuseOps); CompileWith can disable that for differential testing.
func (c *Circuit) Compile(model noise.Model) (*Plan, error) {
	return c.CompileWith(model, CompileOptions{})
}

// CompileWith is Compile with explicit options.
func (c *Circuit) CompileWith(model noise.Model, opts CompileOptions) (*Plan, error) {
	p := &Plan{
		space:    c.space,
		model:    model,
		ops:      make([]planOp, 0, len(c.ops)),
		numOps:   len(c.ops),
		hasNoise: !model.IsZero(),
	}
	// Channel compilation is cached per (dimension, multi-qudit) class
	// and coset tables per wire, so wide registers compile in O(ops).
	type chanSetKey struct {
		d     int
		multi bool
	}
	chanSets := make(map[chanSetKey][]*compiledChannel)
	wireCosets := make(map[int]coset)
	cosetFor := func(wire int) coset {
		cs, ok := wireCosets[wire]
		if !ok {
			cs = newCoset(c.space, []int{wire})
			wireCosets[wire] = cs
		}
		return cs
	}
	for i, op := range c.ops {
		dim := c.space.TargetDim(op.Targets)
		m := op.Gate.Matrix
		if m == nil {
			return nil, fmt.Errorf("circuit: op %d (%s): nil gate matrix", i, op.Gate.Name)
		}
		if m.Rows != dim || m.Cols != dim {
			return nil, fmt.Errorf("circuit: op %d (%s): matrix %dx%d does not match target dim %d",
				i, op.Gate.Name, m.Rows, m.Cols, dim)
		}
		po := planOp{
			name:    op.Gate.Name,
			targets: op.Targets,
			dim:     dim,
			offsets: c.space.TargetOffsets(op.Targets),
			free:    newCoset(c.space, op.Targets),
			mat:     m,
		}
		classifyOp(&po, c.space.Dim(op.Targets[0]))
		if p.hasNoise {
			arity := op.Gate.Arity()
			for _, t := range op.Targets {
				key := chanSetKey{d: c.space.Dim(t), multi: arity > 1}
				ccs, ok := chanSets[key]
				if !ok {
					for _, ch := range model.GateChannels(key.d, arity) {
						cc, err := compileChannel(ch)
						if err != nil {
							return nil, fmt.Errorf("circuit: op %d (%s): %w", i, op.Gate.Name, err)
						}
						ccs = append(ccs, cc)
					}
					chanSets[key] = ccs
				}
				for _, cc := range ccs {
					po.noise = append(po.noise, &plannedChannel{
						compiledChannel: cc,
						wire:            t,
						stride:          c.space.Stride(t),
						free:            cosetFor(t),
					})
				}
			}
		}
		if po.dim > p.maxDim {
			p.maxDim = po.dim
		}
		p.ops = append(p.ops, po)
	}
	if model.IdleDamping > 0 || model.IdleDephasing > 0 {
		p.moments = c.Moments()
		p.idle = make([][]noise.Channel, c.space.NumWires())
		for w := range p.idle {
			p.idle[w] = model.IdleChannels(c.space.Dim(w))
		}
	}
	// Moment schedules index p.ops by logical op position (RunDensity's
	// idle-noise path), so idle-noise plans keep the unfused op list —
	// idle channels fire between every moment anyway, leaving no
	// channel-free runs worth fusing.
	if !opts.DisableFusion && p.moments == nil {
		p.ops = fuseOps(p.ops)
	}
	return p, nil
}

// classifyOp picks the cheapest kernel for a gate matrix. ctrlDim is the
// local dimension of the first target, used for the controlled
// decomposition.
func classifyOp(po *planOp, ctrlDim int) {
	if diag, ok := diagonalOf(po.mat); ok {
		po.kind, po.diag = KernelDiagonal, diag
		return
	}
	if src, coef, ok := monomialOf(po.mat); ok {
		po.kind, po.src, po.coef = KernelMonomial, src, coef
		return
	}
	if len(po.targets) > 1 {
		if blocks, ok := controlledBlocks(po.mat, ctrlDim); ok {
			po.kind, po.blocks = KernelControlled, blocks
			return
		}
	}
	po.kind = KernelDense
}

// diagonalOf returns the diagonal if every off-diagonal entry is zero.
func diagonalOf(m *qmath.Matrix) ([]complex128, bool) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, x := range row {
			if i != j && x != 0 {
				return nil, false
			}
		}
	}
	diag := make([]complex128, m.Rows)
	for i := range diag {
		diag[i] = m.At(i, i)
	}
	return diag, true
}

// monomialOf recognizes matrices with at most one nonzero per row AND
// per column — permutations with phases (unitary case) and the
// shift-like Kraus operators of damping channels (which may have empty
// rows). src[i] is the input index feeding output i, -1 for a zero row.
func monomialOf(m *qmath.Matrix) (src []int, coef []complex128, ok bool) {
	src = make([]int, m.Rows)
	coef = make([]complex128, m.Rows)
	colUsed := make([]bool, m.Cols)
	for i := 0; i < m.Rows; i++ {
		src[i] = -1
		row := m.Row(i)
		for j, x := range row {
			if x == 0 {
				continue
			}
			if src[i] >= 0 || colUsed[j] {
				return nil, nil, false
			}
			src[i], coef[i] = j, x
			colUsed[j] = true
		}
	}
	return src, coef, true
}

// controlledBlocks recognizes block-diagonal structure with respect to
// the first target's digit: entries couple (i, j) only when i and j
// share a control digit. Each block is classified on its own, and exact
// identity blocks are marked for skipping.
func controlledBlocks(m *qmath.Matrix, ctrlDim int) ([]planBlock, bool) {
	if ctrlDim < 2 || m.Rows%ctrlDim != 0 {
		return nil, false
	}
	sub := m.Rows / ctrlDim
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, x := range row {
			if x != 0 && i/sub != j/sub {
				return nil, false
			}
		}
	}
	blocks := make([]planBlock, ctrlDim)
	for c := 0; c < ctrlDim; c++ {
		blk := qmath.NewMatrix(sub, sub)
		for i := 0; i < sub; i++ {
			for j := 0; j < sub; j++ {
				blk.Set(i, j, m.At(c*sub+i, c*sub+j))
			}
		}
		b := planBlock{mat: blk}
		if diag, ok := diagonalOf(blk); ok {
			b.kind, b.diag = KernelDiagonal, diag
			b.skip = true
			for _, x := range diag {
				if x != 1 {
					b.skip = false
					break
				}
			}
		} else if src, coef, ok := monomialOf(blk); ok {
			b.kind, b.src, b.coef = KernelMonomial, src, coef
		} else {
			b.kind = KernelDense
		}
		blocks[c] = b
	}
	return blocks, true
}

// Space returns the register index space the plan executes on.
func (p *Plan) Space() *hilbert.Space { return p.space }

// Dims returns the register dimensions.
func (p *Plan) Dims() hilbert.Dims { return p.space.Dims() }

// Len returns the number of logical ops the plan was compiled from
// (fusion does not change it — it is the plan-cache identity check).
func (p *Plan) Len() int { return p.numOps }

// CompiledLen returns the number of kernels after fusion; equal to
// Len() when nothing fused.
func (p *Plan) CompiledLen() int { return len(p.ops) }

// OpsFused returns how many logical ops fusion absorbed into chained
// kernels: Len() - CompiledLen().
func (p *Plan) OpsFused() int { return p.numOps - len(p.ops) }

// StageCounts returns, per compiled kernel, the number of logical ops
// it chains (1 for unfused kernels) — for inspection and tests.
func (p *Plan) StageCounts() []int {
	out := make([]int, len(p.ops))
	for i := range p.ops {
		if n := len(p.ops[i].stages); n > 0 {
			out[i] = n
		} else {
			out[i] = 1
		}
	}
	return out
}

// Model returns the noise model the plan was compiled against.
func (p *Plan) Model() noise.Model { return p.model }

// Kernels returns the per-op kernel classification, for inspection and
// tests.
func (p *Plan) Kernels() []KernelKind {
	out := make([]KernelKind, len(p.ops))
	for i := range p.ops {
		out[i] = p.ops[i].kind
	}
	return out
}

// Workspace owns all mutable state of one executing worker: the reusable
// state vector (reset to |0...0> per shot instead of reallocated),
// gather/scatter scratch, coset odometer digits, channel-sampling
// buffers, and a probability buffer sized to the register. Workspaces
// are not safe for concurrent use — create one per worker; the Plan
// itself is shared.
type Workspace struct {
	plan    *Plan
	vec     *state.Vec
	amps    qmath.Vector
	scratch []complex128
	out     []complex128
	digits  []int
	probs   []float64
	cs      chanScratch
}

// NewWorkspace allocates a workspace for executing p. The only
// post-construction allocations on a shot are Go runtime internals —
// the trajectory engine's allocation regression test pins this to zero.
func (p *Plan) NewWorkspace() (*Workspace, error) {
	v, err := state.NewZero(p.space.Dims())
	if err != nil {
		return nil, err
	}
	maxDim := p.maxDim
	if maxDim < 1 {
		maxDim = 1
	}
	ws := &Workspace{
		plan:    p,
		vec:     v,
		amps:    v.RawAmplitudes(),
		scratch: make([]complex128, maxDim),
		out:     make([]complex128, maxDim),
		digits:  make([]int, p.space.NumWires()),
		probs:   make([]float64, p.space.Total()),
	}
	ws.cs = chanScratchSized(p.channelMaxima())
	ws.cs.digits = ws.digits
	return ws, nil
}

// channelMaxima aggregates the buffer requirements of every resolved
// channel of the plan, feeding the shared chanScratchSized rule.
func (p *Plan) channelMaxima() (maxWireDim, maxKraus int, hasDense bool) {
	maxWireDim, maxKraus = 1, 1
	for i := range p.ops {
		for _, pc := range p.ops[i].noise {
			if pc.d > maxWireDim {
				maxWireDim = pc.d
			}
			if len(pc.kraus) > maxKraus {
				maxKraus = len(pc.kraus)
			}
			if !pc.monomial {
				hasDense = true
			}
		}
	}
	return maxWireDim, maxKraus, hasDense
}

// State returns the workspace's state vector. It aliases the workspace:
// the next RunShot/RunPure call overwrites it, so callers that need a
// snapshot must Clone it.
func (ws *Workspace) State() *state.Vec { return ws.vec }

// BornProbabilities writes the current state's basis probabilities into
// the workspace probability buffer and returns it (valid until the next
// call on this workspace).
func (ws *Workspace) BornProbabilities() []float64 {
	return ws.vec.ProbabilitiesInto(ws.probs)
}

// RunPure executes the compiled ops noiselessly on a freshly reset
// |0...0> state and returns the workspace state (alias, not a copy).
func (p *Plan) RunPure(ws *Workspace) *state.Vec {
	ws.vec.ResetZero()
	p.applyPure(ws.amps, ws)
	return ws.vec
}

// RunPureOn executes the compiled ops noiselessly on v in place, with
// ws as scratch; v must be on the plan's register.
func (p *Plan) RunPureOn(ws *Workspace, v *state.Vec) error {
	if !v.Dims().Equal(p.space.Dims()) {
		return fmt.Errorf("circuit: state dims %v != plan dims %v", v.Dims(), p.space.Dims())
	}
	p.applyPure(v.RawAmplitudes(), ws)
	return nil
}

func (p *Plan) applyPure(amps qmath.Vector, ws *Workspace) {
	for i := range p.ops {
		p.ops[i].apply(amps, ws)
	}
}

// RunShot executes one stochastic quantum-trajectory unraveling on the
// workspace: reset to |0...0>, then for every op apply its kernel and
// sample one Kraus branch of each resolved noise channel with its Born
// probability. The returned state aliases the workspace. For a fixed
// rng stream the outcome is byte-identical to the interpreted
// Circuit.RunTrajectory path: both draw the same random variates against
// the same floating-point thresholds, accumulated in the same order.
func (p *Plan) RunShot(ws *Workspace, rng *rand.Rand) (*state.Vec, error) {
	ws.vec.ResetZero()
	for i := range p.ops {
		op := &p.ops[i]
		op.apply(ws.amps, ws)
		for _, pc := range op.noise {
			if err := pc.applyStochastic(rng, ws.amps, &ws.cs); err != nil {
				return nil, fmt.Errorf("op %d (%s): %w", i, op.name, err)
			}
		}
	}
	return ws.vec, nil
}

// apply dispatches one compiled op to its kernel. Kernels preserve the
// accumulation order of state.Vec.ApplyMatrix (ascending input index,
// zero entries skipped), so compiled and interpreted execution agree on
// every probability bit-for-bit.
func (op *planOp) apply(amps qmath.Vector, ws *Workspace) {
	if op.stages != nil {
		op.applyFused(amps, ws)
		return
	}
	switch op.kind {
	case KernelDiagonal:
		diag, offs := op.diag, op.offsets
		op.free.forEachBase(ws.digits, func(base int) {
			for k, off := range offs {
				amps[base+off] *= diag[k]
			}
		})
	case KernelMonomial:
		offs, src, coef := op.offsets, op.src, op.coef
		scratch := ws.scratch[:op.dim]
		op.free.forEachBase(ws.digits, func(base int) {
			for k, off := range offs {
				scratch[k] = amps[base+off]
			}
			for i, off := range offs {
				s := src[i]
				if s < 0 {
					amps[base+off] = 0
					continue
				}
				amps[base+off] = coef[i] * scratch[s]
			}
		})
	case KernelControlled:
		sub := op.dim / len(op.blocks)
		scratch := ws.scratch[:sub]
		out := ws.out[:sub]
		op.free.forEachBase(ws.digits, func(base int) {
			for c := range op.blocks {
				blk := &op.blocks[c]
				if blk.skip {
					continue
				}
				offs := op.offsets[c*sub : (c+1)*sub]
				switch blk.kind {
				case KernelDiagonal:
					for k, off := range offs {
						amps[base+off] *= blk.diag[k]
					}
				case KernelMonomial:
					for k, off := range offs {
						scratch[k] = amps[base+off]
					}
					for i, off := range offs {
						s := blk.src[i]
						if s < 0 {
							amps[base+off] = 0
							continue
						}
						amps[base+off] = blk.coef[i] * scratch[s]
					}
				default:
					denseApply(blk.mat, amps, base, offs, scratch, out)
				}
			}
		})
	default:
		scratch := ws.scratch[:op.dim]
		out := ws.out[:op.dim]
		op.free.forEachBase(ws.digits, func(base int) {
			denseApply(op.mat, amps, base, op.offsets, scratch, out)
		})
	}
}

// denseApply is the gather/multiply/scatter core, with unrolled inner
// loops for joint dimensions 2-4. All variants accumulate in ascending
// input order and skip exact-zero matrix entries — the same arithmetic
// as state.Vec.ApplyMatrix.
func denseApply(m *qmath.Matrix, amps qmath.Vector, base int, offs []int, scratch, out []complex128) {
	dim := len(offs)
	for k, off := range offs {
		scratch[k] = amps[base+off]
	}
	switch dim {
	case 2:
		d := m.Data
		out[0] = mul2(d[0], scratch[0], d[1], scratch[1])
		out[1] = mul2(d[2], scratch[0], d[3], scratch[1])
	case 3:
		d := m.Data
		out[0] = mul3(d[0], d[1], d[2], scratch)
		out[1] = mul3(d[3], d[4], d[5], scratch)
		out[2] = mul3(d[6], d[7], d[8], scratch)
	case 4:
		d := m.Data
		out[0] = mul4(d[0:4], scratch)
		out[1] = mul4(d[4:8], scratch)
		out[2] = mul4(d[8:12], scratch)
		out[3] = mul4(d[12:16], scratch)
	default:
		for i := 0; i < dim; i++ {
			row := m.Row(i)
			var s complex128
			for k, x := range row {
				if x != 0 {
					s += x * scratch[k]
				}
			}
			out[i] = s
		}
	}
	for k, off := range offs {
		amps[base+off] = out[k]
	}
}

func mul2(a, x, b, y complex128) complex128 {
	var s complex128
	if a != 0 {
		s += a * x
	}
	if b != 0 {
		s += b * y
	}
	return s
}

func mul3(a, b, c complex128, x []complex128) complex128 {
	var s complex128
	if a != 0 {
		s += a * x[0]
	}
	if b != 0 {
		s += b * x[1]
	}
	if c != 0 {
		s += c * x[2]
	}
	return s
}

func mul4(row, x []complex128) complex128 {
	var s complex128
	if row[0] != 0 {
		s += row[0] * x[0]
	}
	if row[1] != 0 {
		s += row[1] * x[1]
	}
	if row[2] != 0 {
		s += row[2] * x[2]
	}
	if row[3] != 0 {
		s += row[3] * x[3]
	}
	return s
}

// RunDensity executes the plan on a fresh density matrix with exact
// Kraus noise, reusing the channels resolved at compile time (the
// interpreted path rebuilds every channel's Kraus set per gate). Results
// are identical to Circuit.RunDensityOn: channel constructors are
// deterministic, so resolved-once and rebuilt-per-op Kraus operators
// carry the same bits.
func (p *Plan) RunDensity() (*density.DM, error) {
	r, err := density.NewZero(p.space.Dims())
	if err != nil {
		return nil, err
	}
	if p.moments == nil {
		for i := range p.ops {
			if err := p.applyNoisyOp(r, &p.ops[i]); err != nil {
				return nil, fmt.Errorf("op %d (%s): %w", i, p.ops[i].name, err)
			}
		}
		return r, nil
	}
	touched := make([]bool, p.space.NumWires())
	for _, moment := range p.moments {
		for i := range touched {
			touched[i] = false
		}
		for _, opIdx := range moment {
			op := &p.ops[opIdx]
			if err := p.applyNoisyOp(r, op); err != nil {
				return nil, fmt.Errorf("op %d (%s): %w", opIdx, op.name, err)
			}
			for _, t := range op.targets {
				touched[t] = true
			}
		}
		for w := 0; w < p.space.NumWires(); w++ {
			if touched[w] {
				continue
			}
			for _, ch := range p.idle[w] {
				if err := r.ApplyKraus(ch.Kraus, []int{w}); err != nil {
					return nil, fmt.Errorf("idle noise wire %d: %w", w, err)
				}
			}
		}
	}
	return r, nil
}

func (p *Plan) applyNoisyOp(r *density.DM, op *planOp) error {
	if op.stages != nil {
		// Fused kernels apply their stages' unitaries in order; only
		// the final stage can carry noise (fusion barrier), applied
		// below like the unfused schedule would.
		for si := range op.stages {
			if err := r.ApplyUnitary(op.stages[si].mat, op.targets); err != nil {
				return err
			}
		}
	} else if err := r.ApplyUnitary(op.mat, op.targets); err != nil {
		return err
	}
	for _, pc := range op.noise {
		if err := r.ApplyKraus(pc.channel.Kraus, []int{pc.wire}); err != nil {
			return err
		}
	}
	return nil
}
