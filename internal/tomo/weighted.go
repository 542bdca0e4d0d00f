package tomo

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/la"
)

// ErrBadWeights is returned for malformed weight vectors.
var ErrBadWeights = errors.New("tomo: bad weights")

// EstimateWeighted solves the weighted least-squares tomography problem
//
//	x̂ = argmin Σ_i w_i (R_i·x − y_i)²  =  (RᵀWR)⁻¹RᵀW·y
//
// for per-path weights w ⪰ 0. Measurement noise is heteroscedastic in
// practice — per-hop jitter adds up, so long paths are noisier and
// deserve less weight (w_i ∝ 1/Var(y_i) ≈ 1/hops); loss-domain
// measurements of heavily dropped paths are noisier still. Uniform
// weights reduce to Estimate. Zero-weight paths are allowed as long as
// the weighted system keeps full column rank.
func (s *System) EstimateWeighted(y la.Vector, w la.Vector) (la.Vector, error) {
	if len(y) != s.NumPaths() {
		return nil, fmt.Errorf("tomo: EstimateWeighted with %d measurements, want %d: %w",
			len(y), s.NumPaths(), la.ErrShape)
	}
	if len(w) != s.NumPaths() {
		return nil, fmt.Errorf("tomo: %d weights for %d paths: %w", len(w), s.NumPaths(), ErrBadWeights)
	}
	for i, wi := range w {
		if wi < 0 || math.IsNaN(wi) || math.IsInf(wi, 0) {
			return nil, fmt.Errorf("tomo: weight[%d] = %g: %w", i, wi, ErrBadWeights)
		}
	}
	if s.r == nil {
		return nil, fmt.Errorf("%w: weighted estimation runs the dense route only", ErrDenseSuppressed)
	}
	// Scale rows by √w and reuse the ordinary solver on (√W·R, √W·y).
	nP, nL := s.NumPaths(), s.NumLinks()
	scaled := la.NewMatrix(nP, nL)
	ys := make(la.Vector, nP)
	for i := 0; i < nP; i++ {
		sq := math.Sqrt(w[i])
		for j := 0; j < nL; j++ {
			scaled.Set(i, j, sq*s.r.At(i, j))
		}
		ys[i] = sq * y[i]
	}
	t, err := la.NormalEquationOperator(scaled)
	if err != nil {
		if errors.Is(err, la.ErrNotSPD) {
			return nil, fmt.Errorf("%w: weighted system rank-deficient", ErrNotIdentifiable)
		}
		return nil, err
	}
	xhat, err := t.MulVec(ys)
	if err != nil {
		return nil, err
	}
	return xhat, nil
}

// HopCountWeights returns the canonical heteroscedastic weighting
// w_i = 1/hops_i: per-hop jitter is independent, so a path's
// measurement variance grows linearly in its length.
func (s *System) HopCountWeights() la.Vector {
	w := make(la.Vector, s.NumPaths())
	for i, p := range s.Paths() {
		w[i] = 1 / float64(p.Len())
	}
	return w
}
