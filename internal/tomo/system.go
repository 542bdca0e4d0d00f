package tomo

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// ErrNotIdentifiable is returned when the routing matrix lacks full
// column rank, i.e. the selected paths cannot distinguish all links.
var ErrNotIdentifiable = errors.New("tomo: link metrics not identifiable")

// ErrDenseSuppressed is returned (or carried in panics from the
// legacy dense accessors) when an operation requires the dense routing
// matrix or dense operator on a system built for sparse scale.
var ErrDenseSuppressed = errors.New("tomo: dense representation suppressed at sparse scale")

// DenseBudget caps the dense mirror of the routing matrix at
// paths×links entries. At or below the budget NewSystem keeps the dense
// R alongside the CSR form and estimation runs the bit-exact Cholesky/
// operator route; above it only the CSR form exists and estimation runs
// through a sparse Cholesky factor of RᵀR. The default (4Mi entries,
// 32 MiB) is far above every paper-scale scenario, so all existing
// experiments keep their bit-exact dense semantics, while ISP-scale
// systems never materialize a P×L or L×L dense array.
var DenseBudget int64 = 4 << 20

// System binds a topology to a set of measurement paths and exposes the
// paper's linear measurement model y = Rx (Eq. 1) and its least-squares
// inverse (Eq. 2).
//
// The routing matrix is held in CSR form always; a dense mirror exists
// only within DenseBudget. The solver — dense normal-equation Cholesky
// or a sparse Cholesky factor — is selected and built at most once per
// System and shared by every subsequent Estimate call; a System is safe
// for concurrent use once constructed.
type System struct {
	g *graph.Graph
	// A system AddPath built keeps its parent's path table and the
	// added path apart, and Paths joins them on first use, so a churn
	// round trip — add a path, then remove it — copies no path table.
	paths    []graph.Path
	added    *graph.Path
	joinOnce sync.Once
	joined   []graph.Path
	sr       *sparse.CSR
	r        *la.Matrix // dense mirror; nil above DenseBudget

	onSolve func(SolveStats)

	solverOnce sync.Once
	solver     Solver
	solverErr  error
}

// NewSystem validates the measurement paths against g (simple,
// well-formed, monitor endpoints are the caller's concern) and builds
// the routing matrix: CSR always, plus the dense mirror when
// paths×links fits DenseBudget.
func NewSystem(g *graph.Graph, paths []graph.Path) (*System, error) {
	return newSystem(g, paths, false)
}

// NewSparseSystem is NewSystem with the dense mirror unconditionally
// suppressed: the routing matrix exists only in CSR form, and the
// solver is a sparse Cholesky factor of RᵀR under an approximate-
// minimum-degree ordering, regardless of size. Its pivots are the
// identifiability screen, an estimate is one transpose matvec plus two
// triangular solves, and the whole system costs O(nnz(R) + nnz(L)) — a
// few kilobytes on the committed backbone fixtures. tomographyd builds
// every topology it serves this way.
func NewSparseSystem(g *graph.Graph, paths []graph.Path) (*System, error) {
	return newSystem(g, paths, true)
}

func newSystem(g *graph.Graph, paths []graph.Path, forceSparse bool) (*System, error) {
	if g == nil {
		return nil, fmt.Errorf("tomo: nil graph")
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("tomo: no measurement paths")
	}
	nnz := 0
	for i, p := range paths {
		if err := p.Validate(g); err != nil {
			return nil, fmt.Errorf("tomo: path %d: %w", i, err)
		}
		nnz += p.Len()
	}
	ts := make([]sparse.Triplet, 0, nnz)
	for i, p := range paths {
		for _, l := range p.Links {
			ts = append(ts, sparse.Triplet{Row: i, Col: int(l), Val: 1})
		}
	}
	sr, err := sparse.FromTriplets(len(paths), g.NumLinks(), ts)
	if err != nil {
		return nil, fmt.Errorf("tomo: routing matrix: %w", err)
	}
	copied := make([]graph.Path, len(paths))
	for i, p := range paths {
		copied[i] = p.Clone()
	}
	s := &System{g: g, paths: copied, sr: sr}
	if !forceSparse && int64(len(paths))*int64(g.NumLinks()) <= DenseBudget {
		s.r = sr.Dense()
	}
	return s, nil
}

// RoutingMatrix builds the 0/1 matrix R with R[i][j] = 1 iff link j lies
// on path i (Eq. 1), densely. Scale-conscious callers use the CSR form
// on System instead.
func RoutingMatrix(g *graph.Graph, paths []graph.Path) *la.Matrix {
	r := la.NewMatrix(len(paths), g.NumLinks())
	for i, p := range paths {
		for _, l := range p.Links {
			r.Set(i, int(l), 1)
		}
	}
	return r
}

// Graph returns the underlying topology.
func (s *System) Graph() *graph.Graph { return s.g }

// Paths returns the measurement paths (shared slice; callers must not
// mutate).
func (s *System) Paths() []graph.Path {
	s.joinOnce.Do(func() {
		s.joined = s.paths
		if s.added != nil {
			s.joined = append(s.paths[:len(s.paths):len(s.paths)], *s.added)
		}
	})
	return s.joined
}

// NumPaths returns |P|.
func (s *System) NumPaths() int { return s.sr.Rows() }

// NumLinks returns |L|.
func (s *System) NumLinks() int { return s.g.NumLinks() }

// R returns the dense routing matrix (shared; callers must not
// mutate). It panics with ErrDenseSuppressed on a sparse-scale system:
// materializing P×L dense storage there is exactly the OOM this
// subsystem exists to prevent, and every legitimate R() consumer (the
// attack LPs, identifiability analysis, weighted estimation) operates
// at dense scale.
func (s *System) R() *la.Matrix {
	if s.r == nil {
		panic(fmt.Sprintf("%v: %d paths × %d links exceeds DenseBudget %d; use CSR()",
			ErrDenseSuppressed, s.NumPaths(), s.g.NumLinks(), DenseBudget))
	}
	return s.r
}

// CSR returns the routing matrix in compressed-sparse-row form
// (shared; callers must not mutate). Present on every system.
func (s *System) CSR() *sparse.CSR { return s.sr }

// Dense reports whether the dense mirror (and therefore the bit-exact
// Cholesky/operator route) is available.
func (s *System) Dense() bool { return s.r != nil }

// Rank returns the numerical rank of R. Dense-scale systems only (it
// runs a dense factorization); see R.
func (s *System) Rank() int { return la.Rank(s.R()) }

// Identifiable reports whether R has full column rank, the paper's
// prerequisite for Eq. 2. On sparse-scale systems the check is the
// pivot screen of the sparse Cholesky factorization rather than a dense
// rank computation.
func (s *System) Identifiable() bool {
	if s.r != nil {
		return s.Rank() == s.g.NumLinks()
	}
	_, err := s.Solver()
	return err == nil
}

// SetSolveObserver installs a callback invoked with the statistics of
// every solve whose engine reports them — an iterative engine installed
// with AdoptSolver. The two built-in engines are direct and report
// nothing. Not synchronized: set it before the system is shared across
// goroutines.
func (s *System) SetSolveObserver(f func(SolveStats)) { s.onSolve = f }

// Solver returns the least-squares engine for this system, selecting
// and building it at most once: the dense normal-equation Cholesky
// factorization when the dense mirror exists, the sparse Cholesky
// factor otherwise. Fails with ErrNotIdentifiable when R lacks full
// column rank.
func (s *System) Solver() (Solver, error) {
	return s.SolverCtx(context.Background())
}

// SolverCtx is Solver under trace propagation: the factorization spans
// ("la.factor_normal" or "tomo.sparse_factor") appear only on the call
// that actually builds the engine.
func (s *System) SolverCtx(ctx context.Context) (Solver, error) {
	s.solverOnce.Do(func() {
		if s.r != nil {
			fac, err := la.FactorNormalCtx(ctx, s.r)
			if err != nil {
				if errors.Is(err, la.ErrNotSPD) {
					err = fmt.Errorf("%w: %v", ErrNotIdentifiable, err)
				}
				s.solverErr = err
				return
			}
			s.solver = denseSolver{fac: fac}
			return
		}
		sv, err := newCholSolver(ctx, s.sr, nil)
		if err != nil {
			s.solverErr = err
			return
		}
		s.solver = sv
	})
	return s.solver, s.solverErr
}

// Factor returns the dense normal-equation factorization of R,
// computing it at most once and reusing it for every later call. Fails
// with ErrNotIdentifiable when R lacks full column rank and with
// ErrDenseSuppressed on sparse-scale systems, whose engine has no dense
// factor — callers that only need a solve should use Solver or
// Estimate, which work on both routes.
func (s *System) Factor() (*la.NormalFactor, error) {
	return s.FactorCtx(context.Background())
}

// FactorCtx is Factor under a trace span: the "la.factor_normal" span
// appears in the trace only on the call that actually factors — warm
// calls add nothing.
func (s *System) FactorCtx(ctx context.Context) (*la.NormalFactor, error) {
	sv, err := s.SolverCtx(ctx)
	if err != nil {
		return nil, err
	}
	ds, ok := sv.(denseSolver)
	if !ok {
		return nil, fmt.Errorf("%w: no dense factor on the %s route", ErrDenseSuppressed, sv.Method())
	}
	return ds.fac, nil
}

// AdoptSolver installs a prebuilt solver from a digest-keyed cache, so this system skips factorization/screening
// entirely. It rejects a solver whose dimensions do not match R. If
// this system has already built (or adopted) its solver, the call is a
// no-op.
func (s *System) AdoptSolver(sv Solver) error {
	if sv == nil {
		return fmt.Errorf("tomo: AdoptSolver: nil solver")
	}
	if sv.Rows() != s.sr.Rows() || sv.Cols() != s.sr.Cols() {
		return fmt.Errorf("tomo: AdoptSolver: solver is %d×%d, routing matrix is %d×%d",
			sv.Rows(), sv.Cols(), s.sr.Rows(), s.sr.Cols())
	}
	s.solverOnce.Do(func() { s.solver = sv })
	return nil
}

// Operator returns T = (RᵀR)⁻¹Rᵀ, materialized once per factorization
// and shared afterwards (systems that adopted a cached factor share the
// operator too). Fails with ErrNotIdentifiable when R lacks full column
// rank, and with ErrDenseSuppressed on sparse-scale systems — the dense
// L×P operator is precisely what the sparse route exists to avoid.
func (s *System) Operator() (*la.Matrix, error) {
	return s.OperatorCtx(context.Background())
}

// OperatorCtx is Operator under a trace span (factorization and
// materialization spans fire only on the calls that do the work).
func (s *System) OperatorCtx(ctx context.Context) (*la.Matrix, error) {
	fac, err := s.FactorCtx(ctx)
	if err != nil {
		return nil, err
	}
	return fac.OperatorCtx(ctx)
}

// mulR applies R·x through the dense mirror when it exists (bit-exact
// with the historical path for finite inputs) and the CSR form
// otherwise.
func (s *System) mulR(x la.Vector) (la.Vector, error) {
	if s.r != nil {
		return s.r.MulVec(x)
	}
	return s.sr.MulVec(x)
}

// Measure applies the forward model: y = Rx for true link metrics x.
func (s *System) Measure(x la.Vector) (la.Vector, error) {
	y, err := s.mulR(x)
	if err != nil {
		return nil, fmt.Errorf("tomo: Measure: %w", err)
	}
	return y, nil
}

// Estimate inverts measurements into link metrics: x̂ = (RᵀR)⁻¹Rᵀy
// (Eq. 2). On the dense route the operator is materialized from the
// cached factorization on first use, so steady-state estimates are a
// single matvec; applying T (rather than back-substituting through the
// factor) keeps estimates bit-identical to the attack-LP construction,
// which reads T's entries — the two differ by rounding, and
// classification thresholds can sit exactly on an LP bound. On the
// sparse route each estimate is Rᵀy followed by two triangular solves
// against the cached factor.
func (s *System) Estimate(y la.Vector) (la.Vector, error) {
	return s.EstimateCtx(context.Background(), y)
}

// EstimateCtx is Estimate under a "tomo.solve" trace span annotated with
// the system shape; cold-start factorization/materialization spans
// appear as children when they actually run.
func (s *System) EstimateCtx(ctx context.Context, y la.Vector) (la.Vector, error) {
	ctx, span := obs.StartSpan(ctx, "tomo.solve")
	defer span.End()
	span.SetInt("paths", s.NumPaths())
	span.SetInt("links", s.NumLinks())
	sv, err := s.SolverCtx(ctx)
	if err != nil {
		return nil, err
	}
	xhat, stats, err := sv.SolveCtx(ctx, y)
	if stats != nil && s.onSolve != nil {
		s.onSolve(*stats)
	}
	if err != nil {
		return nil, err
	}
	return xhat, nil
}

// Residual returns R·x̂ − y, the inconsistency vector the paper's
// detection method tests (Eq. 23).
func (s *System) Residual(xhat, y la.Vector) (la.Vector, error) {
	rx, err := s.mulR(xhat)
	if err != nil {
		return nil, fmt.Errorf("tomo: Residual: %w", err)
	}
	res, err := rx.Sub(y)
	if err != nil {
		return nil, fmt.Errorf("tomo: Residual: %w", err)
	}
	return res, nil
}

// PathsWithLink returns the indices of measurement paths containing
// link l.
func (s *System) PathsWithLink(l graph.LinkID) []int {
	var out []int
	for i, p := range s.Paths() {
		if p.HasLink(l) {
			out = append(out, i)
		}
	}
	return out
}

// PathsWithAnyNode returns the indices of measurement paths touching any
// node in set — the paths an attacker set can manipulate (Constraint 1).
func (s *System) PathsWithAnyNode(set map[graph.NodeID]bool) []int {
	var out []int
	for i, p := range s.Paths() {
		if p.HasAnyNode(set) {
			out = append(out, i)
		}
	}
	return out
}
