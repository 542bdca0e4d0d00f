package tomo

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// Solver is the least-squares engine behind Estimate, abstracted so the
// dense route (bit-exact, materialized operator, paper-scale systems)
// and the sparse direct route (a fill-reducing Cholesky factor of RᵀR,
// every served system) are interchangeable behind one registration/
// cache/estimate pipeline. A Solver is immutable and safe for
// concurrent use; long-lived services cache them keyed by
// routing-matrix digest and share one Solver across every System with
// the same R.
type Solver interface {
	// Rows and Cols are the dimensions of the factored routing matrix
	// (paths × links), used by adoption checks.
	Rows() int
	Cols() int
	// Method names the engine ("cholesky" or "sparse-cholesky") for
	// trace annotation.
	Method() string
	// SolveCtx returns the least-squares estimate for measurements y.
	// An iterative engine also returns per-solve statistics; the two
	// built-in engines are direct and return nil stats.
	SolveCtx(ctx context.Context, y la.Vector) (la.Vector, *SolveStats, error)
}

// intoSolver is implemented by the two built-in engines: solveInto is
// SolveCtx writing x̂ into dst (length Cols) instead of a fresh vector.
type intoSolver interface {
	solveInto(ctx context.Context, dst, y la.Vector) error
}

// SolveStats describes one iterative solve by an adopted engine, fed to
// the observer installed with SetSolveObserver.
type SolveStats struct {
	Method         string
	Iterations     int
	ResidualNorm   float64 // ‖y − R·x̂‖₂
	NormalResidual float64 // ‖Rᵀ(y − R·x̂)‖₂
	Converged      bool
}

// denseSolver wraps the normal-equation Cholesky factorization and
// applies the memoized dense operator T = (RᵀR)⁻¹Rᵀ, exactly as the
// pre-sparse Estimate did — the dense route stays bit-exact with the
// attack-LP construction, which reads T's entries.
type denseSolver struct {
	fac *la.NormalFactor
}

func (d denseSolver) Rows() int      { return d.fac.Rows() }
func (d denseSolver) Cols() int      { return d.fac.Cols() }
func (d denseSolver) Method() string { return "cholesky" }

func (d denseSolver) SolveCtx(ctx context.Context, y la.Vector) (la.Vector, *SolveStats, error) {
	xhat := make(la.Vector, d.Cols())
	if err := d.solveInto(ctx, xhat, y); err != nil {
		return nil, nil, err
	}
	return xhat, nil, nil
}

func (d denseSolver) solveInto(ctx context.Context, dst, y la.Vector) error {
	t, err := d.fac.OperatorCtx(ctx)
	if err != nil {
		return err
	}
	if err := t.MulVecInto(dst, y); err != nil {
		return fmt.Errorf("tomo: Estimate: %w", err)
	}
	return nil
}

// cholSolver solves the normal equations RᵀR·x̂ = Rᵀy through a sparse
// Cholesky factor: one transpose matvec and two triangular solves, all
// O(nnz(R) + nnz(L)).
type cholSolver struct {
	a *sparse.CSR
	f *sparse.Cholesky
}

func (s *cholSolver) Rows() int      { return s.a.Rows() }
func (s *cholSolver) Cols() int      { return s.a.Cols() }
func (s *cholSolver) Method() string { return "sparse-cholesky" }

func (s *cholSolver) SolveCtx(ctx context.Context, y la.Vector) (la.Vector, *SolveStats, error) {
	xhat := make(la.Vector, s.a.Cols())
	if err := s.solveInto(ctx, xhat, y); err != nil {
		return nil, nil, err
	}
	return xhat, nil, nil
}

func (s *cholSolver) solveInto(_ context.Context, dst, y la.Vector) error {
	if err := s.a.MulVecTInto(dst, y); err != nil {
		return fmt.Errorf("tomo: Estimate: %w", err)
	}
	return s.f.Solve(dst)
}

// newCholSolver factors RᵀR for routing matrix a. With prev set it
// reuses prev's fill-reducing ordering (a path add or remove changes R
// by one row) and reruns only the symbolic and numeric passes. A pivot
// failure is the exact rank screen: it maps to ErrNotIdentifiable.
func newCholSolver(ctx context.Context, a *sparse.CSR, prev *sparse.Cholesky) (*cholSolver, error) {
	_, span := obs.StartSpan(ctx, "tomo.sparse_factor")
	defer span.End()
	span.SetInt("rows", a.Rows())
	span.SetInt("cols", a.Cols())
	span.SetInt("nnz", a.NNZ())
	var (
		f   *sparse.Cholesky
		err error
	)
	if prev != nil {
		f, err = prev.Refactor(a)
	} else {
		f, err = sparse.FactorCholesky(a)
	}
	if errors.Is(err, sparse.ErrIllConditioned) {
		return nil, fmt.Errorf("%w: %v", ErrNotIdentifiable, err)
	}
	if err != nil {
		return nil, fmt.Errorf("tomo: sparse factor: %w", err)
	}
	span.SetInt("nnz_l", f.NNZ())
	return &cholSolver{a: a, f: f}, nil
}
