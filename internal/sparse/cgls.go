package sparse

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/la"
)

// Solver failure modes. Both errors are returned alongside the partial
// Result so callers can inspect how far the iteration got.
var (
	// ErrNotConverged means the iteration budget ran out before the
	// normal-equations residual reached tolerance.
	ErrNotConverged = errors.New("sparse: iterative solver did not converge")
	// ErrIllConditioned means the solver detected (near-)rank-deficiency:
	// a CGLS search direction fell into A's null space, or a Cholesky
	// pivot of AᵀA failed the rank screen.
	ErrIllConditioned = errors.New("sparse: system ill-conditioned or rank-deficient")
)

// Default solver budgets. DefaultTol is the relative reduction required
// of ‖Aᵀ(b−Ax)‖; tighter than estimation noise ever warrants, so the
// iterative estimate is interchangeable with the dense one at test
// tolerances.
const DefaultTol = 1e-10

// Options configures CGLS.
type Options struct {
	// Tol is the relative convergence tolerance on the normal-equations
	// residual: stop when ‖Aᵀr‖ ≤ Tol·‖Aᵀb‖. 0 selects DefaultTol.
	Tol float64
	// MaxIter is the iteration budget. 0 selects 2·cols + 100.
	MaxIter int
}

func (o Options) tol() float64 {
	if o.Tol <= 0 {
		return DefaultTol
	}
	return o.Tol
}

func (o Options) maxIter(cols int) int {
	if o.MaxIter <= 0 {
		return 2*cols + 100
	}
	return o.MaxIter
}

// Result reports an iterative least-squares solve.
type Result struct {
	// X is the solution iterate (the least-squares estimate on
	// convergence; the best iterate so far otherwise).
	X la.Vector
	// Iterations is the number of iterations actually run.
	Iterations int
	// ResidualNorm is ‖b − A·X‖₂.
	ResidualNorm float64
	// NormalResidual is ‖Aᵀ(b − A·X)‖₂, the optimality measure the
	// stopping rule tests (zero exactly at the least-squares solution).
	NormalResidual float64
	// Converged records whether the stopping tolerance was met.
	Converged bool
}

// CGLS solves min‖b − A·x‖₂ by conjugate gradients on the normal
// equations, applied matrix-free (two sparse matvecs per iteration,
// AᵀA never formed). Starting from x = 0 the iterates stay in range(Aᵀ),
// so on rank-deficient systems CGLS heads toward the minimum-norm
// solution — rank deficiency is therefore detected separately (the
// Cholesky pivot screen) or via the breakdown guard, not assumed from
// convergence. CGLS is the independent iterative oracle for the direct
// solver's tests and benchmarks.
//
// The iteration is deterministic: fixed summation order, no randomness,
// no parallelism.
func CGLS(a *CSR, b la.Vector, opts Options) (*Result, error) {
	if len(b) != a.rows {
		return nil, fmt.Errorf("sparse: CGLS rhs has length %d, want %d: %w", len(b), a.rows, la.ErrShape)
	}
	tol, maxIter := opts.tol(), opts.maxIter(a.cols)
	x := make(la.Vector, a.cols)
	r := b.Clone() // residual b − Ax; x starts at 0
	s, err := a.MulVecT(r)
	if err != nil {
		return nil, err
	}
	gamma := dot(s, s)
	snorm0 := math.Sqrt(gamma)
	res := &Result{X: x, ResidualNorm: r.Norm2(), NormalResidual: snorm0}
	if snorm0 == 0 {
		// b ⊥ range(A): x = 0 is optimal.
		res.Converged = true
		return res, nil
	}
	p := s.Clone()
	for k := 1; k <= maxIter; k++ {
		q, err := a.MulVec(p)
		if err != nil {
			return nil, err
		}
		qq := dot(q, q)
		if qq <= math.SmallestNonzeroFloat64 {
			// A·p ≈ 0 with p ≠ 0: p sits in A's null space.
			res.Iterations = k - 1
			return res, fmt.Errorf("%w: CGLS search direction in null space at iteration %d", ErrIllConditioned, k)
		}
		alpha := gamma / qq
		for i := range x {
			x[i] += alpha * p[i]
		}
		for i := range r {
			r[i] -= alpha * q[i]
		}
		s, err = a.MulVecT(r)
		if err != nil {
			return nil, err
		}
		gammaNew := dot(s, s)
		res.Iterations = k
		res.NormalResidual = math.Sqrt(gammaNew)
		if res.NormalResidual <= tol*snorm0 {
			res.ResidualNorm = r.Norm2()
			res.Converged = true
			return res, nil
		}
		beta := gammaNew / gamma
		gamma = gammaNew
		for i := range p {
			p[i] = s[i] + beta*p[i]
		}
	}
	res.ResidualNorm = r.Norm2()
	return res, fmt.Errorf("%w: CGLS stopped after %d iterations with ‖Aᵀr‖/‖Aᵀb‖ = %.3g (tol %.3g)",
		ErrNotConverged, res.Iterations, res.NormalResidual/snorm0, tol)
}

// dot is the fixed-order inner product used by every solver loop.
func dot(a, b la.Vector) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
