package tomo

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/la"
	"repro/internal/sparse"
	"repro/internal/topo"
)

// fig1SparsePair builds the Fig. 1 measurement system twice: once on the
// default (dense) route and once with the dense mirror suppressed, so
// the iterative path can be held against the bit-exact oracle.
func fig1SparsePair(t *testing.T) (*System, *System) {
	t.Helper()
	f := topo.Fig1()
	paths, _, err := SelectPaths(f.G, f.Monitors, SelectOptions{Exhaustive: true, TargetPaths: 23})
	if err != nil {
		t.Fatalf("SelectPaths: %v", err)
	}
	dense, err := NewSystem(f.G, paths)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	sp, err := NewSparseSystem(f.G, paths)
	if err != nil {
		t.Fatalf("NewSparseSystem: %v", err)
	}
	return dense, sp
}

func TestSparseSystemSuppressesDense(t *testing.T) {
	dense, sp := fig1SparsePair(t)
	if !dense.Dense() {
		t.Fatal("paper-scale system lost its dense mirror")
	}
	if sp.Dense() {
		t.Fatal("NewSparseSystem kept a dense mirror")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("R() on a sparse system did not panic")
		}
		if !strings.Contains(r.(string), ErrDenseSuppressed.Error()) {
			t.Fatalf("panic %q does not mention ErrDenseSuppressed", r)
		}
	}()
	sp.R()
}

func TestSparseFactorSuppressed(t *testing.T) {
	_, sp := fig1SparsePair(t)
	if _, err := sp.Factor(); !errors.Is(err, ErrDenseSuppressed) {
		t.Fatalf("Factor err = %v, want ErrDenseSuppressed", err)
	}
	if _, err := sp.Operator(); !errors.Is(err, ErrDenseSuppressed) {
		t.Fatalf("Operator err = %v, want ErrDenseSuppressed", err)
	}
}

func TestSparseEstimateAgreesWithDenseOracle(t *testing.T) {
	dense, sp := fig1SparsePair(t)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		x := make(la.Vector, dense.NumLinks())
		for i := range x {
			x[i] = rng.Float64() * 10
		}
		y, err := dense.Measure(x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := dense.Estimate(y)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sp.Estimate(y)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, 1e-7) {
			t.Fatalf("trial %d: sparse %v vs dense %v", trial, got, want)
		}
	}
}

func TestSparseEstimateOnBackbone(t *testing.T) {
	g, err := topo.Backbone(9, 600)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := topo.BackbonePaths(g, 60, 9)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewSystem(g, paths)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSparseSystem(g, paths)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Identifiable() {
		t.Fatal("backbone mesh not identifiable on the sparse route")
	}
	rng := rand.New(rand.NewSource(42))
	x := make(la.Vector, g.NumLinks())
	for i := range x {
		x[i] = 1 + rng.Float64()
	}
	y, err := sp.Measure(x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dense.Estimate(y)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sp.Estimate(y)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-6) {
		t.Fatal("sparse estimate disagrees with dense oracle on backbone mesh")
	}
	if !got.Equal(x, 1e-6) {
		t.Fatal("noise-free backbone estimate did not recover the true metrics")
	}
}

func TestSparseDigestMatchesDense(t *testing.T) {
	// The digest keys solver caches and WAL records; it must not depend
	// on which representation the system holds.
	dense, sp := fig1SparsePair(t)
	if dense.Digest() != sp.Digest() {
		t.Fatalf("digest differs by representation: dense %s sparse %s", dense.Digest(), sp.Digest())
	}
}

func TestSparseRankDeficiencyParity(t *testing.T) {
	// Two identical paths covering both links: full coverage, rank 1.
	// The dense route (Cholesky ErrNotSPD) and the sparse route (the
	// factor's pivot screen) must both classify it ErrNotIdentifiable.
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	l0, err := g.AddLink(a, b)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := g.AddLink(b, c)
	if err != nil {
		t.Fatal(err)
	}
	p := graph.Path{Nodes: []graph.NodeID{a, b, c}, Links: []graph.LinkID{l0, l1}}
	paths := []graph.Path{p, p.Clone()}

	dense, err := NewSystem(g, paths)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dense.Solver(); !errors.Is(err, ErrNotIdentifiable) {
		t.Fatalf("dense route: err = %v, want ErrNotIdentifiable", err)
	}
	sp, err := NewSparseSystem(g, paths)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Solver(); !errors.Is(err, ErrNotIdentifiable) {
		t.Fatalf("sparse route: err = %v, want ErrNotIdentifiable", err)
	}
	if sp.Identifiable() {
		t.Fatal("rank-deficient sparse system claims identifiability")
	}
}

func TestSparseUncoveredLinkRejected(t *testing.T) {
	// A link on no path fails before the numeric factorization, with a
	// message naming the link's column.
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	l0, err := g.AddLink(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(b, c); err != nil {
		t.Fatal(err)
	}
	p := graph.Path{Nodes: []graph.NodeID{a, b}, Links: []graph.LinkID{l0}}
	sp, err := NewSparseSystem(g, []graph.Path{p, p.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	_, serr := sp.Solver()
	if !errors.Is(serr, ErrNotIdentifiable) {
		t.Fatalf("err = %v, want ErrNotIdentifiable", serr)
	}
	if !strings.Contains(serr.Error(), "column 1 is empty") {
		t.Fatalf("error %q does not name the coverage failure", serr)
	}
}

// cglsEngine is an iterative engine adopted through AdoptSolver: the
// seam through which SolveStats and the solve observer still flow.
type cglsEngine struct {
	a    *sparse.CSR
	opts sparse.Options
}

func (e cglsEngine) Rows() int      { return e.a.Rows() }
func (e cglsEngine) Cols() int      { return e.a.Cols() }
func (e cglsEngine) Method() string { return "cgls" }

func (e cglsEngine) SolveCtx(_ context.Context, y la.Vector) (la.Vector, *SolveStats, error) {
	res, err := sparse.CGLS(e.a, y, e.opts)
	if res == nil {
		return nil, nil, err
	}
	return res.X, &SolveStats{Method: "cgls", Iterations: res.Iterations,
		ResidualNorm: res.ResidualNorm, NormalResidual: res.NormalResidual, Converged: res.Converged}, err
}

func TestSparseNonConvergenceSurfaces(t *testing.T) {
	_, sp := fig1SparsePair(t)
	if err := sp.AdoptSolver(cglsEngine{a: sp.CSR(), opts: sparse.Options{Tol: 1e-15, MaxIter: 1}}); err != nil {
		t.Fatal(err)
	}
	y := make(la.Vector, sp.NumPaths())
	for i := range y {
		y[i] = float64(i + 1)
	}
	_, err := sp.Estimate(y)
	if !errors.Is(err, sparse.ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
}

func TestSparseSolveObserver(t *testing.T) {
	dense, sp := fig1SparsePair(t)
	var seen []SolveStats
	sp.SetSolveObserver(func(st SolveStats) { seen = append(seen, st) })
	y := make(la.Vector, sp.NumPaths())
	for i := range y {
		y[i] = float64(i%5) + 1
	}
	// The built-in direct engine reports nothing.
	if _, err := sp.Estimate(y); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 0 {
		t.Fatalf("direct solve fed the observer: %+v", seen)
	}
	// An adopted iterative engine feeds it once per solve, batched or not.
	dense.SetSolveObserver(func(st SolveStats) { seen = append(seen, st) })
	if err := dense.AdoptSolver(cglsEngine{a: dense.CSR()}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if _, err := dense.Estimate(y); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dense.EstimateBatch([]la.Vector{y}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("observer saw %d solves, want 3", len(seen))
	}
	for _, st := range seen {
		if st.Method != "cgls" || !st.Converged || st.Iterations <= 0 {
			t.Fatalf("implausible stats: %+v", st)
		}
	}
}

func TestSparseAdoptSolverShared(t *testing.T) {
	dense, sp := fig1SparsePair(t)
	sv, err := sp.Solver()
	if err != nil {
		t.Fatal(err)
	}
	// A second system with the same routing matrix adopts the solver and
	// produces identical estimates without refactoring.
	f := topo.Fig1()
	other, err := NewSparseSystem(f.G, sp.Paths())
	if err != nil {
		t.Fatal(err)
	}
	if err := other.AdoptSolver(sv); err != nil {
		t.Fatalf("AdoptSolver: %v", err)
	}
	y := make(la.Vector, sp.NumPaths())
	for i := range y {
		y[i] = float64(i + 1)
	}
	x1, err := sp.Estimate(y)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := other.Estimate(y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatal("adopted solver produced different estimate")
		}
	}
	// Dimension mismatch is rejected.
	if err := dense.AdoptSolver(sv); err != nil {
		t.Fatal("matching dims rejected") // same R: should be a no-op accept
	}
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	l0, lerr := g.AddLink(a, b)
	if lerr != nil {
		t.Fatal(lerr)
	}
	tiny, err := NewSystem(g, []graph.Path{{Nodes: []graph.NodeID{a, b}, Links: []graph.LinkID{l0}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tiny.AdoptSolver(sv); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestWeightedEstimateSuppressedOnSparse(t *testing.T) {
	_, sp := fig1SparsePair(t)
	w := make(la.Vector, sp.NumPaths())
	for i := range w {
		w[i] = 1
	}
	y := make(la.Vector, sp.NumPaths())
	if _, err := sp.EstimateWeighted(y, w); !errors.Is(err, ErrDenseSuppressed) {
		t.Fatalf("err = %v, want ErrDenseSuppressed", err)
	}
}
