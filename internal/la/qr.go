package la

import (
	"fmt"
	"math"
)

// QR is a Householder QR factorization A = Q·R of an m×n matrix with
// m ≥ n. Householder vectors are stored below the diagonal of qr, the
// upper triangle holds R, and rdiag holds R's diagonal.
type QR struct {
	qr    *Matrix
	rdiag Vector
}

// FactorQR computes the Householder QR factorization of a (m ≥ n
// required). Unlike Cholesky on AᵀA, the factorization itself succeeds for
// rank-deficient input; rank deficiency surfaces in Solve.
func FactorQR(a *Matrix) (*QR, error) {
	m, n := a.rows, a.cols
	if m < n {
		return nil, fmt.Errorf("la: FactorQR of %d×%d matrix needs rows ≥ cols: %w", m, n, ErrShape)
	}
	qr := a.Clone()
	rdiag := make(Vector, n)
	for k := 0; k < n; k++ {
		// Norm of column k below row k.
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.data[i*n+k])
		}
		if nrm == 0 {
			rdiag[k] = 0
			continue
		}
		if qr.data[k*n+k] < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			qr.data[i*n+k] /= nrm
		}
		qr.data[k*n+k]++
		// Apply the reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.data[i*n+k] * qr.data[i*n+j]
			}
			s = -s / qr.data[k*n+k]
			for i := k; i < m; i++ {
				qr.data[i*n+j] += s * qr.data[i*n+k]
			}
		}
		rdiag[k] = -nrm
	}
	return &QR{qr: qr, rdiag: rdiag}, nil
}

// FullRank reports whether the factored matrix has full column rank,
// judged against tol (pass 0 for a scale-aware default).
func (q *QR) FullRank(tol float64) bool {
	if tol <= 0 {
		tol = q.defaultTol()
	}
	for _, d := range q.rdiag {
		if math.Abs(d) <= tol {
			return false
		}
	}
	return true
}

func (q *QR) defaultTol() float64 {
	// Scale tolerance by the largest |R| diagonal, the usual rank
	// heuristic for Householder QR.
	var max float64
	for _, d := range q.rdiag {
		if a := math.Abs(d); a > max {
			max = a
		}
	}
	if max == 0 {
		return 1e-10
	}
	return max * 1e-10 * float64(len(q.rdiag))
}

// Solve returns the least-squares solution x minimizing ‖A·x − b‖₂.
// It returns ErrSingular when A is column-rank-deficient.
func (q *QR) Solve(b Vector) (Vector, error) {
	m, n := q.qr.rows, q.qr.cols
	if len(b) != m {
		return nil, fmt.Errorf("la: QR.Solve with rhs length %d, want %d: %w", len(b), m, ErrShape)
	}
	if !q.FullRank(0) {
		return nil, fmt.Errorf("la: QR.Solve on rank-deficient matrix: %w", ErrSingular)
	}
	y := b.Clone()
	// Apply Qᵀ to b.
	for k := 0; k < n; k++ {
		if q.qr.data[k*n+k] == 0 {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += q.qr.data[i*n+k] * y[i]
		}
		s = -s / q.qr.data[k*n+k]
		for i := k; i < m; i++ {
			y[i] += s * q.qr.data[i*n+k]
		}
	}
	// Back substitution R·x = (Qᵀb)[:n].
	x := make(Vector, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= q.qr.data[i*n+j] * x[j]
		}
		x[i] = s / q.rdiag[i]
	}
	return x, nil
}

// LeastSquares solves min ‖A·x − b‖₂ in one call via Householder QR.
func LeastSquares(a *Matrix, b Vector) (Vector, error) {
	f, err := FactorQR(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Rank returns the numerical rank of a, computed by Gaussian elimination
// with partial pivoting and a scale-aware tolerance. It works for any
// shape, including the wide/tall 0/1 routing matrices used in tomography.
func Rank(a *Matrix) int {
	m, n := a.rows, a.cols
	if m == 0 || n == 0 {
		return 0
	}
	w := a.Clone()
	tol := w.MaxAbs() * 1e-10 * float64(max(m, n))
	if tol == 0 {
		return 0
	}
	rank := 0
	for col := 0; col < n && rank < m; col++ {
		// Pivot search in the current column at or below row `rank`.
		p, best := -1, tol
		for i := rank; i < m; i++ {
			if v := math.Abs(w.data[i*n+col]); v > best {
				best, p = v, i
			}
		}
		if p < 0 {
			continue
		}
		if p != rank {
			swapRows(w, p, rank)
		}
		pv := w.data[rank*n+col]
		for i := rank + 1; i < m; i++ {
			f := w.data[i*n+col] / pv
			if f == 0 {
				continue
			}
			row := w.data[i*n : (i+1)*n]
			prow := w.data[rank*n : (rank+1)*n]
			for j := col; j < n; j++ {
				row[j] -= f * prow[j]
			}
		}
		rank++
	}
	return rank
}

// NormalEquationOperator returns T = (RᵀR)⁻¹Rᵀ, the linear operator the
// paper's tomography estimator applies to a measurement vector (Eq. 2).
// It fails with ErrNotSPD when R lacks full column rank (link metrics not
// identifiable). Callers that solve repeatedly against the same R should
// hold a NormalFactor instead.
func NormalEquationOperator(r *Matrix) (*Matrix, error) {
	f, err := FactorNormal(r)
	if err != nil {
		return nil, err
	}
	return f.Operator()
}

func swapRows(m *Matrix, i, j int) {
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
