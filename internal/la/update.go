package la

import (
	"errors"
	"fmt"
	"math"
)

// ErrDowndate is returned when a rank-1 downdate would leave the matrix
// indefinite — removing v·vᵀ from A destroys positive definiteness, so
// no Cholesky factor of A − v·vᵀ exists. In tomography terms: removing
// the measurement path made the link metrics unidentifiable.
var ErrDowndate = errors.New("la: rank-1 downdate leaves matrix indefinite")

// updateDriftTol is the conditioning bound for incrementally maintained
// factors: when min|diag(L)| / max|diag(L)| falls to this ratio the
// factor certifies cond(R) ≥ 1e8 (the diagonal ratio of a triangular
// factor bounds 1/cond from below), the same 1e-8 relative gap at which
// the sparse route's CondEst screen declares rank deficiency. AddRow/RemoveRow then fall back to a cold dense
// refactorization — the oracle — instead of trusting accumulated
// rotation error.
const updateDriftTol = 1e-8

// Update returns the Cholesky factor of A + v·vᵀ given the factor of A,
// in O(n²) instead of the O(n³) of refactorization. The receiver is not
// modified. The update is the classical LINPACK dchud sweep: one Givens
// rotation per column annihilates v against the diagonal while
// preserving [L v]·[L v]ᵀ = L·Lᵀ + v·vᵀ. A rank-1 update of an SPD
// matrix is always SPD, so Update fails only on a shape mismatch.
func (c *Cholesky) Update(v Vector) (*Cholesky, error) {
	n := c.l.rows
	if len(v) != n {
		return nil, fmt.Errorf("la: Cholesky.Update with vector length %d, want %d: %w", len(v), n, ErrShape)
	}
	l := c.l.Clone()
	w := v.Clone()
	for k := 0; k < n; k++ {
		lkk := l.data[k*n+k]
		r := math.Hypot(lkk, w[k])
		cs, sn := lkk/r, w[k]/r
		l.data[k*n+k] = r
		for i := k + 1; i < n; i++ {
			t := l.data[i*n+k]
			l.data[i*n+k] = cs*t + sn*w[i]
			w[i] = cs*w[i] - sn*t
		}
	}
	return &Cholesky{l: l}, nil
}

// Downdate returns the Cholesky factor of A − v·vᵀ given the factor of
// A, in O(n²). The receiver is not modified. It follows LINPACK dchdd:
// solve L·p = v, require ‖p‖ < 1 (the exact condition for A − v·vᵀ to
// stay positive definite, since vᵀA⁻¹v = ‖p‖²), build the hyperbolic
// rotation angles backward, and sweep them through L. When the
// downdated matrix would be indefinite — or so close to singular that a
// pivot lands under the Cholesky tolerance — Downdate returns an
// explicit ErrDowndate (also matching ErrNotSPD) rather than a garbage
// factor.
func (c *Cholesky) Downdate(v Vector) (*Cholesky, error) {
	n := c.l.rows
	if len(v) != n {
		return nil, fmt.Errorf("la: Cholesky.Downdate with vector length %d, want %d: %w", len(v), n, ErrShape)
	}
	// Forward substitution p = L⁻¹·v.
	p := v.Clone()
	for i := 0; i < n; i++ {
		s := p[i]
		for j := 0; j < i; j++ {
			s -= c.l.data[i*n+j] * p[j]
		}
		p[i] = s / c.l.data[i*n+i]
	}
	pp := 0.0
	for _, x := range p {
		pp += x * x
	}
	if 1-pp <= spdTol {
		return nil, fmt.Errorf("la: downdate with ‖L⁻¹v‖² = %g ≥ 1: %w: %w", pp, ErrDowndate, ErrNotSPD)
	}
	alpha := math.Sqrt(1 - pp)
	cs := make([]float64, n)
	sn := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		r := math.Hypot(alpha, p[i])
		cs[i] = alpha / r
		sn[i] = p[i] / r
		alpha = r
	}
	l := c.l.Clone()
	for j := 0; j < n; j++ {
		xx := 0.0
		for i := j; i >= 0; i-- {
			t := cs[i]*xx + sn[i]*l.data[j*n+i]
			l.data[j*n+i] = cs[i]*l.data[j*n+i] - sn[i]*xx
			xx = t
		}
	}
	// The rotations can flip a column's sign; L·Lᵀ is invariant under
	// column sign flips, so normalize to a positive diagonal and treat a
	// pivot at/under the SPD tolerance as numerical rank collapse.
	for k := 0; k < n; k++ {
		d := l.data[k*n+k]
		if d < 0 {
			for i := k; i < n; i++ {
				l.data[i*n+k] = -l.data[i*n+k]
			}
			d = -d
		}
		if d <= spdTol {
			return nil, fmt.Errorf("la: downdated pivot %g at %d: %w: %w", d, k, ErrDowndate, ErrNotSPD)
		}
	}
	return &Cholesky{l: l}, nil
}

// AddRow returns the normal-equation factorization of R with row
// appended, reusing the receiver's factor through a rank-1 Cholesky
// update: Gram(R') = RᵀR + row·rowᵀ. Cost is O(links² + links·paths)
// against the O(links²·paths + links³) of FactorNormal. The receiver is
// not modified. refactored reports whether the incremental factor
// drifted past the conditioning bound and a cold dense refactorization
// (the oracle) was run instead.
func (f *NormalFactor) AddRow(row Vector) (nf *NormalFactor, refactored bool, err error) {
	links := f.rt.rows
	if len(row) != links {
		return nil, false, fmt.Errorf("la: AddRow with row length %d, want %d: %w", len(row), links, ErrShape)
	}
	chol, err := f.chol.Update(row)
	if err != nil {
		return nil, false, err
	}
	rt := appendColumn(f.rt, row)
	if factorDrifted(chol) {
		chol, err = refactorGram(rt)
		if err != nil {
			return nil, true, err
		}
		return &NormalFactor{rt: rt, chol: chol}, true, nil
	}
	return &NormalFactor{rt: rt, chol: chol}, false, nil
}

// RemoveRow returns the normal-equation factorization of R with row i
// removed, reusing the receiver's factor through a rank-1 Cholesky
// downdate: Gram(R') = RᵀR − rowᵢ·rowᵢᵀ. The receiver is not modified.
// When the downdate reports indefiniteness or the downdated factor
// drifts past the conditioning bound, RemoveRow falls back to a cold
// dense refactorization (refactored = true); if even the oracle finds
// the reduced matrix rank-deficient, it returns an explicit error
// matching ErrNotSPD — never a garbage factor.
func (f *NormalFactor) RemoveRow(i int) (nf *NormalFactor, refactored bool, err error) {
	paths := f.rt.cols
	if i < 0 || i >= paths {
		return nil, false, fmt.Errorf("la: RemoveRow index %d out of %d rows: %w", i, paths, ErrShape)
	}
	row := f.rt.Col(i)
	rt := removeColumn(f.rt, i)
	chol, err := f.chol.Downdate(row)
	if err != nil && !errors.Is(err, ErrDowndate) {
		return nil, false, err
	}
	if err != nil || factorDrifted(chol) {
		chol, err = refactorGram(rt)
		if err != nil {
			return nil, true, fmt.Errorf("la: matrix not full column rank after row removal: %w", err)
		}
		return &NormalFactor{rt: rt, chol: chol}, true, nil
	}
	return &NormalFactor{rt: rt, chol: chol}, false, nil
}

// factorDrifted reports whether an incrementally maintained factor
// certifies ill-conditioning: min/max diagonal ratio at or under
// updateDriftTol, or any pivot at the Cholesky SPD tolerance.
func factorDrifted(c *Cholesky) bool {
	n := c.l.rows
	lo, hi := math.Inf(1), 0.0
	for k := 0; k < n; k++ {
		d := math.Abs(c.l.data[k*n+k])
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	return lo <= spdTol || lo <= updateDriftTol*hi
}

// refactorGram is the dense oracle: a cold Cholesky factorization of
// rt·rtᵀ (= RᵀR, since rt holds Rᵀ).
func refactorGram(rt *Matrix) (*Cholesky, error) {
	gram, err := rt.Mul(rt.T())
	if err != nil {
		return nil, err
	}
	chol, err := FactorCholesky(gram)
	if err != nil {
		return nil, fmt.Errorf("la: matrix not full column rank: %w", err)
	}
	return chol, nil
}

// appendColumn returns a copy of m with col appended as its last column.
func appendColumn(m *Matrix, col Vector) *Matrix {
	out := NewMatrix(m.rows, m.cols+1)
	for i := 0; i < m.rows; i++ {
		copy(out.data[i*out.cols:i*out.cols+m.cols], m.data[i*m.cols:(i+1)*m.cols])
		out.data[i*out.cols+m.cols] = col[i]
	}
	return out
}

// removeColumn returns a copy of m with column j removed.
func removeColumn(m *Matrix, j int) *Matrix {
	out := NewMatrix(m.rows, m.cols-1)
	for i := 0; i < m.rows; i++ {
		src := m.data[i*m.cols : (i+1)*m.cols]
		dst := out.data[i*out.cols : (i+1)*out.cols]
		copy(dst[:j], src[:j])
		copy(dst[j:], src[j+1:])
	}
	return out
}
