package circuit

import (
	"fmt"
	"math/rand"

	"quditkit/internal/qmath"
	"quditkit/internal/state"
)

// MaxBatchAmps is the batch-arena budget of one trajectory job:
// 1<<22 complex128 (64 MiB). NewBatchWorkspace shrinks the requested
// width so one arena's width*dim stays under it, and a pool of workers
// shares it (core gives each worker an equal part), so a job's batch
// memory is bounded no matter what batch size or pool width a request
// asks for.
const MaxBatchAmps = 1 << 22

// BatchWorkspace owns the mutable state of one worker streaming K
// trajectory shots through a Plan together: a vector-major arena of K
// contiguous state vectors plus the same kernel and channel scratch a
// single-shot Workspace carries. Batching amortizes the coset
// traversal and kernel dispatch of every op across the batch — each
// coset base is visited once per op instead of once per shot — while
// performing, per vector, exactly the floating-point operations of the
// single-shot path in the same order. Results are therefore
// bit-identical for every batch width; the differential suite enforces
// it. Like Workspace, a BatchWorkspace is single-worker state: create
// one per goroutine.
type BatchWorkspace struct {
	plan   *Plan
	k      int // clamped batch width
	dim    int // amplitudes per vector
	arena  qmath.Vector
	ws     *Workspace
	margs  []float64 // batched channel marginals, k * maxWireDim
	chosen []int     // per-vector Kraus branch of the channel in flight
}

// NewBatchWorkspace allocates a workspace holding up to k state
// vectors, clamping k to at least 1 and to the MaxBatchAmps memory
// budget. Callers must size their shot groups to Width(), which
// reports the clamped value.
func (p *Plan) NewBatchWorkspace(k int) (*BatchWorkspace, error) {
	ws, err := p.NewWorkspace()
	if err != nil {
		return nil, err
	}
	dim := p.space.Total()
	if k < 1 {
		k = 1
	}
	if max := MaxBatchAmps / dim; k > max {
		k = max
		if k < 1 {
			k = 1
		}
	}
	maxWireDim, _, _ := p.channelMaxima()
	return &BatchWorkspace{
		plan:   p,
		k:      k,
		dim:    dim,
		arena:  make(qmath.Vector, k*dim),
		ws:     ws,
		margs:  make([]float64, k*maxWireDim),
		chosen: make([]int, k),
	}, nil
}

// Width returns the clamped batch width: the maximum number of rng
// streams RunShotBatch accepts.
func (bw *BatchWorkspace) Width() int { return bw.k }

// Amps returns vector v's amplitude block. It aliases the arena: the
// next RunShotBatch call overwrites it.
func (bw *BatchWorkspace) Amps(v int) qmath.Vector {
	return bw.arena[v*bw.dim : (v+1)*bw.dim]
}

// BornProbabilities writes vector v's basis probabilities into the
// workspace probability buffer and returns it — the same
// ProbabilitiesInto arithmetic as Workspace.BornProbabilities. The
// buffer is shared across vectors: consume it before the next call.
func (bw *BatchWorkspace) BornProbabilities(v int) []float64 {
	return bw.Amps(v).ProbabilitiesInto(bw.ws.probs)
}

// CloneState returns an independent state.Vec snapshot of vector v.
func (bw *BatchWorkspace) CloneState(v int) (*state.Vec, error) {
	sv, err := state.NewZero(bw.plan.space.Dims())
	if err != nil {
		return nil, err
	}
	copy(sv.RawAmplitudes(), bw.Amps(v))
	return sv, nil
}

// reset zeroes the first n vectors and sets each to |0...0>.
func (bw *BatchWorkspace) reset(n int) {
	a := bw.arena[:n*bw.dim]
	for i := range a {
		a[i] = 0
	}
	for va := 0; va < len(a); va += bw.dim {
		a[va] = 1
	}
}

// RunShotBatch executes len(rngs) stochastic trajectory shots
// together, vector v drawing from rngs[v]. Per vector the op order,
// kernel arithmetic, channel thresholds, and rng draw sequence are
// identical to RunShot with the same stream, so outcomes are
// bit-equal to len(rngs) separate RunShot calls — only the traversal
// interleaving differs, and gates act independently per coset block.
func (p *Plan) RunShotBatch(bw *BatchWorkspace, rngs []*rand.Rand) error {
	n := len(rngs)
	if n < 1 || n > bw.k {
		return fmt.Errorf("circuit: batch of %d rng streams, workspace width %d", n, bw.k)
	}
	bw.reset(n)
	for i := range p.ops {
		op := &p.ops[i]
		op.applyBatch(bw, n)
		for _, pc := range op.noise {
			if err := pc.applyStochasticBatch(rngs, bw); err != nil {
				return fmt.Errorf("op %d (%s): %w", i, op.name, err)
			}
		}
	}
	return nil
}

// applyBatch is planOp.apply over n vectors: one coset traversal with
// an inner vector loop. Each vector sees the same per-base arithmetic
// as the single-shot kernels.
func (op *planOp) applyBatch(bw *BatchWorkspace, n int) {
	amps, dim, ws := bw.arena, bw.dim, bw.ws
	end := n * dim
	if op.stages != nil {
		offs := op.offsets
		if op.kind == KernelDiagonal {
			op.free.forEachBase(ws.digits, func(base int) {
				for va := 0; va < end; va += dim {
					b := va + base
					for si := range op.stages {
						diag := op.stages[si].diag
						for k, off := range offs {
							amps[b+off] *= diag[k]
						}
					}
				}
			})
			return
		}
		cur := ws.scratch[:op.dim]
		tmp := ws.out[:op.dim]
		op.free.forEachBase(ws.digits, func(base int) {
			for va := 0; va < end; va += dim {
				b := va + base
				for k, off := range offs {
					cur[k] = amps[b+off]
				}
				chainStages(op.stages, cur, tmp)
				for k, off := range offs {
					amps[b+off] = cur[k]
				}
			}
		})
		return
	}
	switch op.kind {
	case KernelDiagonal:
		diag, offs := op.diag, op.offsets
		op.free.forEachBase(ws.digits, func(base int) {
			for va := 0; va < end; va += dim {
				b := va + base
				for k, off := range offs {
					amps[b+off] *= diag[k]
				}
			}
		})
	case KernelMonomial:
		offs, src, coef := op.offsets, op.src, op.coef
		scratch := ws.scratch[:op.dim]
		op.free.forEachBase(ws.digits, func(base int) {
			for va := 0; va < end; va += dim {
				b := va + base
				for k, off := range offs {
					scratch[k] = amps[b+off]
				}
				for i, off := range offs {
					s := src[i]
					if s < 0 {
						amps[b+off] = 0
						continue
					}
					amps[b+off] = coef[i] * scratch[s]
				}
			}
		})
	case KernelControlled:
		sub := op.dim / len(op.blocks)
		scratch := ws.scratch[:sub]
		out := ws.out[:sub]
		op.free.forEachBase(ws.digits, func(base int) {
			for va := 0; va < end; va += dim {
				b := va + base
				for c := range op.blocks {
					blk := &op.blocks[c]
					if blk.skip {
						continue
					}
					offs := op.offsets[c*sub : (c+1)*sub]
					switch blk.kind {
					case KernelDiagonal:
						for k, off := range offs {
							amps[b+off] *= blk.diag[k]
						}
					case KernelMonomial:
						for k, off := range offs {
							scratch[k] = amps[b+off]
						}
						for i, off := range offs {
							s := blk.src[i]
							if s < 0 {
								amps[b+off] = 0
								continue
							}
							amps[b+off] = blk.coef[i] * scratch[s]
						}
					default:
						denseApply(blk.mat, amps, b, offs, scratch, out)
					}
				}
			}
		})
	default:
		scratch := ws.scratch[:op.dim]
		out := ws.out[:op.dim]
		op.free.forEachBase(ws.digits, func(base int) {
			for va := 0; va < end; va += dim {
				denseApply(op.mat, amps, va+base, op.offsets, scratch, out)
			}
		})
	}
}

// applyStochasticBatch samples and applies one Kraus branch per vector
// with a single coset traversal for the marginals and one for the
// branch application. Per vector: the marginal accumulates over bases
// in the same order as applyStochastic, the branch threshold sees the
// same probabilities, exactly one rngs[v].Float64() is drawn, and the
// same renormalization runs — byte-identical to n separate calls.
// Dense (non-monomial) channels fall back to the per-vector reference
// path; no built-in channel is dense.
func (pc *plannedChannel) applyStochasticBatch(rngs []*rand.Rand, bw *BatchWorkspace) error {
	n := len(rngs)
	if !pc.monomial {
		for v := 0; v < n; v++ {
			if err := pc.applyStochastic(rngs[v], bw.Amps(v), &bw.ws.cs); err != nil {
				return fmt.Errorf("vector %d: %w", v, err)
			}
		}
		return nil
	}
	amps, dim := bw.arena, bw.dim
	d, stride := pc.d, pc.stride
	end := n * dim
	margs := bw.margs[:n*d]
	for i := range margs {
		margs[i] = 0
	}
	pc.free.forEachBase(bw.ws.digits, func(base int) {
		mi := 0
		for va := 0; va < end; va += dim {
			b := va + base
			for j := 0; j < d; j++ {
				a := amps[b+j*stride]
				margs[mi+j] += real(a)*real(a) + imag(a)*imag(a)
			}
			mi += d
		}
	})
	probs := bw.ws.cs.probs[:len(pc.kraus)]
	for v := 0; v < n; v++ {
		marg := margs[v*d : (v+1)*d]
		for k := range probs {
			wk := pc.w[k]
			var s float64
			for j, m := range marg {
				s += wk[j] * m
			}
			probs[k] = s
		}
		var total float64
		for _, p := range probs {
			total += p
		}
		chosen := len(probs) - 1
		r := rngs[v].Float64() * total
		var acc float64
		for i, p := range probs {
			acc += p
			if r < acc {
				chosen = i
				break
			}
		}
		bw.chosen[v] = chosen
	}
	kbuf := bw.ws.cs.kbuf[:d]
	pc.free.forEachBase(bw.ws.digits, func(base int) {
		for v, va := 0, 0; v < n; v, va = v+1, va+dim {
			kk := &pc.kraus[bw.chosen[v]]
			b := va + base
			switch kk.kind {
			case KernelDiagonal:
				for j := 0; j < d; j++ {
					amps[b+j*stride] *= kk.diag[j]
				}
			default: // KernelMonomial — dense branches took the fallback above
				for j := 0; j < d; j++ {
					kbuf[j] = amps[b+j*stride]
				}
				for i := 0; i < d; i++ {
					s := kk.src[i]
					if s < 0 {
						amps[b+i*stride] = 0
						continue
					}
					amps[b+i*stride] = kk.coef[i] * kbuf[s]
				}
			}
		}
	})
	for v := 0; v < n; v++ {
		if bw.Amps(v).Normalize() == 0 {
			return fmt.Errorf("circuit: vector %d: channel %s branch %d annihilated the state",
				v, pc.channel.Name, bw.chosen[v])
		}
	}
	return nil
}
