package circuit

import (
	"fmt"
	"math/rand"

	"quditkit/internal/noise"
	"quditkit/internal/qmath"
)

// krausKernel is one Kraus operator lowered to its cheapest single-wire
// application form.
type krausKernel struct {
	kind KernelKind // KernelDiagonal, KernelMonomial, or KernelDense
	diag []complex128
	src  []int // monomial: output level i reads level src[i]; -1 = zero row
	coef []complex128
	mat  *qmath.Matrix
}

// compiledChannel is the wire-independent compilation of one noise
// channel: per-Kraus kernels plus the data needed to evaluate branch
// probabilities without materializing branch states.
//
// For channels whose Kraus operators are all monomial (every built-in
// channel: depolarizing Weyl operators, dephasing powers of Z, damping
// level shifts), K†K is diagonal, so the branch probability reduces to
// a dot product of precomputed weights with the wire's marginal
// probabilities — O(D + K d) per application. Channels with dense Kraus
// operators fall back to the reduced density matrix of the wire and
// precomputed effects E_k = K_k†K_k, O(D d^2 + K d^2).
type compiledChannel struct {
	channel  noise.Channel
	d        int
	kraus    []krausKernel
	monomial bool
	w        [][]float64     // monomial: w[k][j] = sum_r |K_k[r][j]|^2
	effects  []*qmath.Matrix // dense fallback: E_k = K_k† K_k
}

// plannedChannel binds a compiled channel to one wire of a register.
type plannedChannel struct {
	*compiledChannel
	wire   int
	stride int
	free   coset
}

// chanScratch is the buffer set one stochastic channel application
// needs; the Workspace embeds one, and the interpreted path allocates a
// throwaway per call.
type chanScratch struct {
	digits []int
	marg   []float64
	probs  []float64
	kbuf   []complex128
	rho    *qmath.Matrix // only for dense (non-monomial) channels
}

// chanScratchSized builds channel buffers for the given maxima — the
// single sizing rule shared by the Workspace (which covers every
// channel of a plan) and the interpreted path (one channel at a time).
// The digits odometer is left to the caller: the Workspace shares its
// gate-kernel buffer, the interpreted path allocates its own.
func chanScratchSized(maxWireDim, maxKraus int, hasDense bool) chanScratch {
	cs := chanScratch{
		marg:  make([]float64, maxWireDim),
		probs: make([]float64, maxKraus),
		kbuf:  make([]complex128, maxWireDim),
	}
	if hasDense {
		cs.rho = qmath.NewMatrix(maxWireDim, maxWireDim)
	}
	return cs
}

// compileChannel classifies every Kraus operator of a channel and
// precomputes its branch-probability data.
func compileChannel(ch noise.Channel) (*compiledChannel, error) {
	if len(ch.Kraus) == 0 {
		return nil, fmt.Errorf("channel %s: no Kraus operators", ch.Name)
	}
	cc := &compiledChannel{
		channel:  ch,
		d:        ch.Dim,
		kraus:    make([]krausKernel, len(ch.Kraus)),
		monomial: true,
	}
	for k, kop := range ch.Kraus {
		if kop.Rows != ch.Dim || kop.Cols != ch.Dim {
			return nil, fmt.Errorf("channel %s: Kraus %d is %dx%d, want %dx%d",
				ch.Name, k, kop.Rows, kop.Cols, ch.Dim, ch.Dim)
		}
		kk := krausKernel{mat: kop}
		if diag, ok := diagonalOf(kop); ok {
			kk.kind, kk.diag = KernelDiagonal, diag
		} else if src, coef, ok := monomialOf(kop); ok {
			kk.kind, kk.src, kk.coef = KernelMonomial, src, coef
		} else {
			kk.kind = KernelDense
			cc.monomial = false
		}
		cc.kraus[k] = kk
	}
	if cc.monomial {
		cc.w = make([][]float64, len(ch.Kraus))
		for k, kop := range ch.Kraus {
			wk := make([]float64, ch.Dim)
			for r := 0; r < ch.Dim; r++ {
				row := kop.Row(r)
				for j, x := range row {
					wk[j] += real(x)*real(x) + imag(x)*imag(x)
				}
			}
			cc.w[k] = wk
		}
	} else {
		cc.effects = make([]*qmath.Matrix, len(ch.Kraus))
		for k, kop := range ch.Kraus {
			cc.effects[k] = kop.Dagger().Mul(kop)
		}
	}
	return cc, nil
}

// applyStochastic samples one Kraus branch with its Born probability
// p_k = Tr(K_k rho_w K_k†) and applies it in place with
// renormalization, drawing exactly one rng.Float64(). Both execution
// engines — the compiled Plan and the interpreted Circuit.RunTrajectory
// — funnel through this method, which is what makes their trajectories
// byte-identical: same probabilities, same thresholds, same kernels.
func (pc *plannedChannel) applyStochastic(rng *rand.Rand, amps qmath.Vector, cs *chanScratch) error {
	d, stride := pc.d, pc.stride
	probs := cs.probs[:len(pc.kraus)]
	if pc.monomial {
		// Monomial Kraus sets only need the wire's marginal populations.
		marg := cs.marg[:d]
		for j := range marg {
			marg[j] = 0
		}
		pc.free.forEachBase(cs.digits, func(base int) {
			for j := 0; j < d; j++ {
				a := amps[base+j*stride]
				marg[j] += real(a)*real(a) + imag(a)*imag(a)
			}
		})
		for k := range probs {
			wk := pc.w[k]
			var s float64
			for j, m := range marg {
				s += wk[j] * m
			}
			probs[k] = s
		}
	} else {
		// Dense fallback: reduced density matrix + precomputed effects.
		rho := cs.rho
		for i := 0; i < d; i++ {
			row := rho.Row(i)
			for j := 0; j < d; j++ {
				row[j] = 0
			}
		}
		pc.free.forEachBase(cs.digits, func(base int) {
			for i := 0; i < d; i++ {
				ai := amps[base+i*stride]
				if ai == 0 {
					continue
				}
				row := rho.Row(i)
				for j := 0; j < d; j++ {
					aj := amps[base+j*stride]
					row[j] += ai * complex(real(aj), -imag(aj))
				}
			}
		})
		for k, eff := range pc.effects {
			// p_k = Tr(E_k rho) = sum_{i,j} E_k[i][j] rho[j][i].
			var tr complex128
			for i := 0; i < d; i++ {
				row := eff.Row(i)
				for j, x := range row {
					if x != 0 {
						tr += x * rho.At(j, i)
					}
				}
			}
			p := real(tr)
			if p < 0 {
				p = 0
			}
			probs[k] = p
		}
	}
	var total float64
	for _, p := range probs {
		total += p
	}
	chosen := len(probs) - 1
	r := rng.Float64() * total
	var acc float64
	for i, p := range probs {
		acc += p
		if r < acc {
			chosen = i
			break
		}
	}
	pc.applyKraus(&pc.kraus[chosen], amps, cs)
	if amps.Normalize() == 0 {
		return fmt.Errorf("circuit: channel %s branch %d annihilated the state", pc.channel.Name, chosen)
	}
	return nil
}

// applyKraus applies one lowered Kraus operator to the wire in place.
func (pc *plannedChannel) applyKraus(kk *krausKernel, amps qmath.Vector, cs *chanScratch) {
	d, stride := pc.d, pc.stride
	switch kk.kind {
	case KernelDiagonal:
		diag := kk.diag
		pc.free.forEachBase(cs.digits, func(base int) {
			for j := 0; j < d; j++ {
				amps[base+j*stride] *= diag[j]
			}
		})
	case KernelMonomial:
		src, coef := kk.src, kk.coef
		kbuf := cs.kbuf[:d]
		pc.free.forEachBase(cs.digits, func(base int) {
			for j := 0; j < d; j++ {
				kbuf[j] = amps[base+j*stride]
			}
			for i := 0; i < d; i++ {
				s := src[i]
				if s < 0 {
					amps[base+i*stride] = 0
					continue
				}
				amps[base+i*stride] = coef[i] * kbuf[s]
			}
		})
	default:
		m := kk.mat
		kbuf := cs.kbuf[:d]
		pc.free.forEachBase(cs.digits, func(base int) {
			for j := 0; j < d; j++ {
				kbuf[j] = amps[base+j*stride]
			}
			for i := 0; i < d; i++ {
				row := m.Row(i)
				var s complex128
				for k, x := range row {
					if x != 0 {
						s += x * kbuf[k]
					}
				}
				amps[base+i*stride] = s
			}
		})
	}
}
