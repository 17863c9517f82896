// Package sqed implements the lattice-gauge-theory application of the
// paper (§II.A): truncated U(1) rotor Hamiltonians — covering both the
// (1+1)D sQED-style chain of Gustafson (arXiv:2201.04546) and the 2+1D
// pure-gauge dual-rotor ladder of Unmuth-Yockey — together with Trotter
// circuit generation in native-qudit and binary-qubit encodings, mass-gap
// extraction from real-time quenches, noise-threshold comparisons between
// encodings, and resource estimates for the forecast cavity processor.
package sqed

import (
	"errors"
	"fmt"

	"quditkit/internal/hilbert"
	"quditkit/internal/qmath"
)

// ErrBadModel indicates invalid model parameters.
var ErrBadModel = errors.New("sqed: invalid model")

// Edge is one nearest-neighbor bond of the lattice.
type Edge struct {
	A, B int
}

// Rotor is a truncated U(1) quantum-rotor Hamiltonian on an arbitrary
// interaction graph:
//
//	H = (g^2/2) sum_i Lz_i^2  -  x sum_<ij> (U_i† U_j + U_j† U_i)
//
// with Lz = diag(-l..l) the electric field (angular momentum) operator
// and U the raising operator in the Lz basis, truncated to d = 2l+1
// levels. The chain instance models the gauge sector of (1+1)D sQED after
// the paper's approximations; the ladder instance is the dual-variable
// form of 2+1D pure-gauge U(1) theory, where each plaquette hosts one
// rotor coupled to its grid neighbors.
type Rotor struct {
	NumSites int
	Edges    []Edge
	// Ell is the angular-momentum truncation l; the local dimension is
	// d = 2l+1 (l = 1 gives the qutrit encoding studied in [11]).
	Ell int
	// G2 is the squared gauge coupling multiplying the electric term.
	G2 float64
	// X is the hopping/plaquette coupling multiplying the U†U term.
	X float64
}

// NewChain returns a 1D rotor chain with the given number of sites.
func NewChain(sites, ell int, g2, x float64, periodic bool) (*Rotor, error) {
	if sites < 2 || ell < 1 {
		return nil, fmt.Errorf("%w: sites=%d ell=%d", ErrBadModel, sites, ell)
	}
	r := &Rotor{NumSites: sites, Ell: ell, G2: g2, X: x}
	for i := 0; i+1 < sites; i++ {
		r.Edges = append(r.Edges, Edge{A: i, B: i + 1})
	}
	if periodic && sites > 2 {
		r.Edges = append(r.Edges, Edge{A: sites - 1, B: 0})
	}
	return r, nil
}

// NewLadder returns an nx x ny grid of rotors with nearest-neighbor
// couplings — the paper's "2D lattice Ns = 9 x 2" target geometry for a
// 2+1D pure-gauge simulation on a 1D ladder of two-mode cavities.
func NewLadder(nx, ny, ell int, g2, x float64) (*Rotor, error) {
	if nx < 1 || ny < 1 || nx*ny < 2 || ell < 1 {
		return nil, fmt.Errorf("%w: nx=%d ny=%d ell=%d", ErrBadModel, nx, ny, ell)
	}
	r := &Rotor{NumSites: nx * ny, Ell: ell, G2: g2, X: x}
	at := func(ix, iy int) int { return iy*nx + ix }
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			if ix+1 < nx {
				r.Edges = append(r.Edges, Edge{A: at(ix, iy), B: at(ix+1, iy)})
			}
			if iy+1 < ny {
				r.Edges = append(r.Edges, Edge{A: at(ix, iy), B: at(ix, iy+1)})
			}
		}
	}
	return r, nil
}

// NewCuboid returns an nx x ny x nz grid of rotors with nearest-neighbor
// couplings — the paper's "going beyond 2D ... for a small number of
// sites" extension, executable on the 1D cavity chain through swap
// networks (the routing layer inserts the swaps automatically).
func NewCuboid(nx, ny, nz, ell int, g2, x float64) (*Rotor, error) {
	if nx < 1 || ny < 1 || nz < 1 || nx*ny*nz < 2 || ell < 1 {
		return nil, fmt.Errorf("%w: nx=%d ny=%d nz=%d ell=%d", ErrBadModel, nx, ny, nz, ell)
	}
	r := &Rotor{NumSites: nx * ny * nz, Ell: ell, G2: g2, X: x}
	at := func(ix, iy, iz int) int { return (iz*ny+iy)*nx + ix }
	for iz := 0; iz < nz; iz++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				if ix+1 < nx {
					r.Edges = append(r.Edges, Edge{A: at(ix, iy, iz), B: at(ix+1, iy, iz)})
				}
				if iy+1 < ny {
					r.Edges = append(r.Edges, Edge{A: at(ix, iy, iz), B: at(ix, iy+1, iz)})
				}
				if iz+1 < nz {
					r.Edges = append(r.Edges, Edge{A: at(ix, iy, iz), B: at(ix, iy, iz+1)})
				}
			}
		}
	}
	return r, nil
}

// LocalDim returns the per-site dimension d = 2l+1.
func (r *Rotor) LocalDim() int { return 2*r.Ell + 1 }

// Dims returns the register dimensions for the native qudit encoding.
func (r *Rotor) Dims() hilbert.Dims { return hilbert.Uniform(r.NumSites, r.LocalDim()) }

// Lz returns the truncated angular-momentum operator diag(-l..l).
func (r *Rotor) Lz() *qmath.Matrix {
	d := r.LocalDim()
	m := qmath.NewMatrix(d, d)
	for k := 0; k < d; k++ {
		m.Set(k, k, complex(float64(k-r.Ell), 0))
	}
	return m
}

// Raising returns the truncated raising operator U|m> = |m+1| (zero at the
// truncation edge). U is the link/rotor variable e^{i theta} in the Lz
// eigenbasis.
func (r *Rotor) Raising() *qmath.Matrix {
	d := r.LocalDim()
	m := qmath.NewMatrix(d, d)
	for k := 0; k+1 < d; k++ {
		m.Set(k+1, k, 1)
	}
	return m
}

// HopBond returns the two-site hopping term -x (U†⊗U + U⊗U†) on one bond.
func (r *Rotor) HopBond() *qmath.Matrix {
	u := r.Raising()
	h := qmath.Kron(u.Dagger(), u).Add(qmath.Kron(u, u.Dagger()))
	return h.Scale(complex(-r.X, 0))
}

// Hamiltonian builds the dense Hamiltonian on the full register — only
// feasible for small instances, where it provides the exact reference for
// Trotter and noise studies.
func (r *Rotor) Hamiltonian() (*qmath.Matrix, error) {
	sp, err := hilbert.NewSpace(r.Dims())
	if err != nil {
		return nil, err
	}
	n := sp.Total()
	h := qmath.NewMatrix(n, n)
	d := r.LocalDim()

	// Electric terms: diagonal.
	for idx := 0; idx < n; idx++ {
		var diag float64
		for s := 0; s < r.NumSites; s++ {
			m := sp.Digit(idx, s) - r.Ell
			diag += r.G2 / 2 * float64(m*m)
		}
		h.Set(idx, idx, complex(diag, 0))
	}
	// Hopping terms: for each bond, |m_a+1, m_b-1><m_a, m_b| + h.c.
	for _, e := range r.Edges {
		for idx := 0; idx < n; idx++ {
			ma := sp.Digit(idx, e.A)
			mb := sp.Digit(idx, e.B)
			// U_a† U_b: lowers a, raises b => <..| term: from state with
			// (ma, mb) to (ma-1, mb+1)? Use the operator form directly:
			// (U†⊗U)|ma, mb> = |ma-1, mb+1> within truncation.
			if ma-1 >= 0 && mb+1 < d {
				dst := sp.WithDigit(sp.WithDigit(idx, e.A, ma-1), e.B, mb+1)
				h.Set(dst, idx, h.At(dst, idx)+complex(-r.X, 0))
			}
			if ma+1 < d && mb-1 >= 0 {
				dst := sp.WithDigit(sp.WithDigit(idx, e.A, ma+1), e.B, mb-1)
				h.Set(dst, idx, h.At(dst, idx)+complex(-r.X, 0))
			}
		}
	}
	return h, nil
}

// Spectrum returns the sorted eigenvalues of the dense Hamiltonian.
func (r *Rotor) Spectrum() ([]float64, error) {
	h, err := r.Hamiltonian()
	if err != nil {
		return nil, err
	}
	eig, err := qmath.EigHermitian(h)
	if err != nil {
		return nil, err
	}
	return eig.Values, nil
}

// MassGapExact returns E1 - E0 from exact diagonalization.
func (r *Rotor) MassGapExact() (float64, error) {
	vals, err := r.Spectrum()
	if err != nil {
		return 0, err
	}
	if len(vals) < 2 {
		return 0, fmt.Errorf("%w: spectrum too small", ErrBadModel)
	}
	return vals[1] - vals[0], nil
}

// GroundState returns the exact ground-state vector.
func (r *Rotor) GroundState() (qmath.Vector, error) {
	h, err := r.Hamiltonian()
	if err != nil {
		return nil, err
	}
	eig, err := qmath.EigHermitian(h)
	if err != nil {
		return nil, err
	}
	return eig.Eigenvector(0), nil
}
