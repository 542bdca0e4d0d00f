package tomo

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// EstimateBatch inverts a batch of measurement rounds against one warm
// solver, paying the solver lookup and trace span once per batch
// instead of once per round. Each round is the same solve Estimate runs
// — on the dense route a matvec with the memoized operator T, on the
// sparse route two triangular solves — so results are bit-identical to
// per-round Estimate.
func (s *System) EstimateBatch(ys []la.Vector) ([]la.Vector, error) {
	return s.EstimateBatchCtx(context.Background(), ys)
}

// EstimateBatchCtx is EstimateBatch under a "tomo.solve_batch" trace
// span. The context is checked between rounds, so a canceled batch
// fails fast with the index it reached.
func (s *System) EstimateBatchCtx(ctx context.Context, ys []la.Vector) ([]la.Vector, error) {
	ctx, span := obs.StartSpan(ctx, "tomo.solve_batch")
	defer span.End()
	span.SetInt("rounds", len(ys))
	span.SetInt("paths", s.NumPaths())
	span.SetInt("links", s.NumLinks())
	if len(ys) == 0 {
		return nil, fmt.Errorf("tomo: EstimateBatch with no rounds")
	}
	sv, err := s.SolverCtx(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]la.Vector, len(ys))
	for i, y := range ys {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("tomo: EstimateBatch canceled after %d/%d rounds: %w", i, len(ys), err)
		}
		xhat, stats, err := sv.SolveCtx(ctx, y)
		if stats != nil && s.onSolve != nil {
			s.onSolve(*stats)
		}
		if err != nil {
			return nil, fmt.Errorf("tomo: EstimateBatch round %d: %w", i, err)
		}
		out[i] = xhat
	}
	return out, nil
}

// PathUpdateInfo reports how a path-mutated System obtained its solver.
type PathUpdateInfo struct {
	// Method names the route taken:
	//   "refactor" the receiver's sparse Cholesky ordering was reused and
	//              only the symbolic and numeric passes reran
	//   "cold"     the solver was built from scratch (the dense route, or
	//              a receiver with no factor to derive from)
	Method string
}

// AddPath returns a new System over the same graph with p appended to
// the measurement paths. The receiver is unchanged (Systems stay
// immutable). The new System's solver is built before it is returned:
// on the sparse route by refactoring under the receiver's fill-reducing
// ordering, on the dense route by a cold factorization. Appending a
// row cannot lose column rank, so AddPath on an identifiable system
// only fails on an invalid path.
func (s *System) AddPath(p graph.Path) (*System, PathUpdateInfo, error) {
	return s.AddPathCtx(context.Background(), p)
}

// AddPathCtx is AddPath under a "tomo.add_path" trace span.
func (s *System) AddPathCtx(ctx context.Context, p graph.Path) (*System, PathUpdateInfo, error) {
	ctx, span := obs.StartSpan(ctx, "tomo.add_path")
	defer span.End()
	if err := p.Validate(s.g); err != nil {
		return nil, PathUpdateInfo{}, fmt.Errorf("tomo: AddPath: %w", err)
	}
	cols := make([]int, len(p.Links))
	for k, l := range p.Links {
		cols[k] = int(l)
	}
	sr, err := s.sr.AppendRow(cols)
	if err != nil {
		return nil, PathUpdateInfo{}, fmt.Errorf("tomo: AddPath: %w", err)
	}
	added := p.Clone()
	ns, info, err := s.derive(ctx, sr, s.Paths(), &added)
	span.SetAttr("method", info.Method)
	return ns, info, err
}

// RemovePath returns a new System with measurement path i removed; the
// receiver is unchanged. Row removal CAN lose column rank: the derived
// solver's pivot screen then fails RemovePath with ErrNotIdentifiable,
// so it never returns a system with a garbage factor.
func (s *System) RemovePath(i int) (*System, PathUpdateInfo, error) {
	return s.RemovePathCtx(context.Background(), i)
}

// RemovePathCtx is RemovePath under a "tomo.remove_path" trace span.
func (s *System) RemovePathCtx(ctx context.Context, i int) (*System, PathUpdateInfo, error) {
	ctx, span := obs.StartSpan(ctx, "tomo.remove_path")
	defer span.End()
	n := s.NumPaths()
	if i < 0 || i >= n {
		return nil, PathUpdateInfo{}, fmt.Errorf("tomo: RemovePath index %d out of %d paths: %w", i, n, la.ErrShape)
	}
	if n == 1 {
		return nil, PathUpdateInfo{}, fmt.Errorf("%w: removing the last measurement path", ErrNotIdentifiable)
	}
	var paths []graph.Path
	if s.added != nil && i == n-1 {
		paths = s.paths // removing the path AddPath added
	} else {
		all := s.Paths()
		paths = make([]graph.Path, 0, n-1)
		paths = append(paths, all[:i]...)
		paths = append(paths, all[i+1:]...)
	}
	ns, info, err := s.derive(ctx, s.sr.RemoveRow(i), paths, nil)
	span.SetAttr("method", info.Method)
	return ns, info, err
}

// derive builds the sibling System for a mutated path set — paths plus
// added, already validated, with routing matrix sr — preserving the
// receiver's representation choice (a forced-sparse system stays
// sparse) and solve observer, and builds its solver: a refactor under
// the receiver's ordering when the receiver holds a sparse factor, a
// cold build otherwise.
func (s *System) derive(ctx context.Context, sr *sparse.CSR, paths []graph.Path, added *graph.Path) (*System, PathUpdateInfo, error) {
	ns := &System{g: s.g, paths: paths, added: added, sr: sr, onSolve: s.onSolve}
	if s.r != nil {
		ns.r = sr.Dense()
	}
	if sv, err := s.Solver(); err == nil {
		if cs, ok := sv.(*cholSolver); ok && ns.r == nil {
			derived, err := newCholSolver(ctx, ns.sr, cs.f)
			if err != nil {
				return nil, PathUpdateInfo{}, err
			}
			ns.solverOnce.Do(func() { ns.solver = derived })
			return ns, PathUpdateInfo{Method: "refactor"}, nil
		}
	}
	if _, err := ns.SolverCtx(ctx); err != nil {
		return nil, PathUpdateInfo{}, err
	}
	return ns, PathUpdateInfo{Method: "cold"}, nil
}
