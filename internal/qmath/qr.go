package qmath

import (
	"math"
	"math/cmplx"
)

// QRResult holds a reduced QR factorization A = Q R with Q having
// orthonormal columns and R upper triangular.
type QRResult struct {
	Q *Matrix
	R *Matrix
}

// QR computes a QR factorization of a (rows >= cols) using modified
// Gram-Schmidt, which is numerically adequate for the well-conditioned
// matrices (random Gaussian, unitary accumulations) this project feeds it.
func QR(a *Matrix) *QRResult {
	m, n := a.Rows, a.Cols
	q := a.Clone()
	r := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		// Normalize column j.
		var norm float64
		for i := 0; i < m; i++ {
			x := q.At(i, j)
			norm += real(x)*real(x) + imag(x)*imag(x)
		}
		norm = math.Sqrt(norm)
		r.Set(j, j, complex(norm, 0))
		if norm > 0 {
			inv := complex(1/norm, 0)
			for i := 0; i < m; i++ {
				q.Set(i, j, q.At(i, j)*inv)
			}
		}
		// Orthogonalize the remaining columns against column j.
		for k := j + 1; k < n; k++ {
			var dot complex128
			for i := 0; i < m; i++ {
				dot += cmplx.Conj(q.At(i, j)) * q.At(i, k)
			}
			r.Set(j, k, dot)
			if dot == 0 {
				continue
			}
			for i := 0; i < m; i++ {
				q.Set(i, k, q.At(i, k)-dot*q.At(i, j))
			}
		}
	}
	return &QRResult{Q: q, R: r}
}
