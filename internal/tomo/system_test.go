package tomo

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/la"
	"repro/internal/topo"
)

// fig1System builds the Fig. 1 topology with 23 identifiable paths.
func fig1System(t *testing.T) (*topo.Fig1Topology, *System) {
	t.Helper()
	f := topo.Fig1()
	paths, rank, err := SelectPaths(f.G, f.Monitors, SelectOptions{Exhaustive: true, TargetPaths: 23})
	if err != nil {
		t.Fatalf("SelectPaths: %v", err)
	}
	if rank != f.G.NumLinks() {
		t.Fatalf("rank = %d, want %d", rank, f.G.NumLinks())
	}
	s, err := NewSystem(f.G, paths)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return f, s
}

func TestRoutingMatrixEntries(t *testing.T) {
	f := topo.Fig1()
	p := graph.Path{
		Nodes: []graph.NodeID{f.M3, f.D, f.M2},
		Links: []graph.LinkID{f.PaperLink[9], f.PaperLink[10]},
	}
	r := RoutingMatrix(f.G, []graph.Path{p})
	if r.Rows() != 1 || r.Cols() != 10 {
		t.Fatalf("R shape = %d×%d", r.Rows(), r.Cols())
	}
	var ones int
	for j := 0; j < 10; j++ {
		if r.At(0, j) == 1 {
			ones++
		}
	}
	if ones != 2 {
		t.Errorf("row has %d ones, want 2", ones)
	}
	if r.At(0, int(f.PaperLink[9])) != 1 || r.At(0, int(f.PaperLink[10])) != 1 {
		t.Error("wrong link columns set")
	}
}

func TestNewSystemValidates(t *testing.T) {
	f := topo.Fig1()
	if _, err := NewSystem(nil, nil); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewSystem(f.G, nil); err == nil {
		t.Error("empty path set accepted")
	}
	bad := graph.Path{Nodes: []graph.NodeID{f.M1}, Links: []graph.LinkID{0}}
	if _, err := NewSystem(f.G, []graph.Path{bad}); err == nil {
		t.Error("invalid path accepted")
	}
}

func TestFig1Identifiable23Paths(t *testing.T) {
	_, s := fig1System(t)
	if s.NumPaths() != 23 {
		t.Errorf("paths = %d, want 23 (as in the paper)", s.NumPaths())
	}
	if !s.Identifiable() {
		t.Error("Fig1 system not identifiable")
	}
	if s.Rank() != 10 {
		t.Errorf("rank = %d, want 10", s.Rank())
	}
}

func TestMeasureEstimateRoundTrip(t *testing.T) {
	_, s := fig1System(t)
	x := make(la.Vector, s.NumLinks())
	rng := rand.New(rand.NewSource(3))
	for i := range x {
		x[i] = 1 + rng.Float64()*19 // the paper's routine 1–20 ms
	}
	y, err := s.Measure(x)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	xhat, err := s.Estimate(y)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if !xhat.Equal(x, 1e-8) {
		t.Errorf("x̂ = %v, want %v", xhat, x)
	}
	// Clean measurements leave a zero residual.
	res, err := s.Residual(xhat, y)
	if err != nil {
		t.Fatalf("Residual: %v", err)
	}
	if res.Norm1() > 1e-8 {
		t.Errorf("clean residual ‖·‖₁ = %g, want ≈ 0", res.Norm1())
	}
}

func TestEstimateRecoversArbitraryMetricsProperty(t *testing.T) {
	// Property: on the identifiable Fig. 1 system, Estimate∘Measure is
	// the identity for any non-negative link metric vector.
	_, s := fig1System(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make(la.Vector, s.NumLinks())
		for i := range x {
			x[i] = rng.Float64() * 1000
		}
		y, err := s.Measure(x)
		if err != nil {
			return false
		}
		xhat, err := s.Estimate(y)
		if err != nil {
			return false
		}
		return xhat.Equal(x, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNotIdentifiableError(t *testing.T) {
	// A single path cannot identify 10 links.
	f := topo.Fig1()
	p := graph.Path{
		Nodes: []graph.NodeID{f.M3, f.D, f.M2},
		Links: []graph.LinkID{f.PaperLink[9], f.PaperLink[10]},
	}
	s, err := NewSystem(f.G, []graph.Path{p})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if s.Identifiable() {
		t.Error("single-path system identifiable")
	}
	if _, err := s.Estimate(la.Vector{1}); !errors.Is(err, ErrNotIdentifiable) {
		t.Errorf("Estimate err = %v, want ErrNotIdentifiable", err)
	}
}

func TestPathsWithLinkAndNode(t *testing.T) {
	f, s := fig1System(t)
	// Every path to M2 uses link 10 (M2 has degree 1).
	with10 := s.PathsWithLink(f.PaperLink[10])
	for _, i := range with10 {
		p := s.Paths()[i]
		if !p.HasNode(f.M2) {
			t.Errorf("path %d has link 10 but not M2", i)
		}
	}
	// Paths touching attackers B, C.
	mal := map[graph.NodeID]bool{f.B: true, f.C: true}
	withMal := s.PathsWithAnyNode(mal)
	if len(withMal) == 0 {
		t.Fatal("no paths touch the attackers")
	}
	// Complement check: paths not in the list contain neither B nor C.
	inList := make(map[int]bool)
	for _, i := range withMal {
		inList[i] = true
	}
	for i, p := range s.Paths() {
		if !inList[i] && p.HasAnyNode(mal) {
			t.Errorf("path %d touches attackers but missing from list", i)
		}
	}
}

func TestMeasureShapeError(t *testing.T) {
	_, s := fig1System(t)
	if _, err := s.Measure(la.Vector{1, 2}); err == nil {
		t.Error("short metric vector accepted")
	}
	if _, err := s.Estimate(la.Vector{1, 2}); err == nil {
		t.Error("short measurement vector accepted")
	}
}

func TestOperatorCached(t *testing.T) {
	_, s := fig1System(t)
	t1, err := s.Operator()
	if err != nil {
		t.Fatalf("Operator: %v", err)
	}
	t2, err := s.Operator()
	if err != nil {
		t.Fatalf("Operator: %v", err)
	}
	if t1 != t2 {
		t.Error("Operator not cached")
	}
}

func TestFactorMemoized(t *testing.T) {
	_, s := fig1System(t)
	f1, err := s.Factor()
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	f2, err := s.Factor()
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	if f1 != f2 {
		t.Errorf("Factor recomputed instead of reusing the cached factorization")
	}
	op1, err := s.Operator()
	if err != nil {
		t.Fatalf("Operator: %v", err)
	}
	op2, _ := s.Operator()
	if op1 != op2 {
		t.Errorf("Operator recomputed instead of reusing the cached matrix")
	}
}

func TestAdoptFactor(t *testing.T) {
	f, s := fig1System(t)
	fac, err := s.Factor()
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	// A second system over the same R adopts the cached factor.
	s2, err := NewSystem(f.G, s.Paths())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if err := s2.AdoptSolver(denseSolver{fac: fac}); err != nil {
		t.Fatalf("AdoptSolver: %v", err)
	}
	got, err := s2.Factor()
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	if got != fac {
		t.Errorf("adopted factor not reused")
	}
	// Estimates through the adopted factor invert the forward model.
	x := make(la.Vector, s2.NumLinks())
	for i := range x {
		x[i] = float64(i + 1)
	}
	y, err := s2.Measure(x)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	xhat, err := s2.Estimate(y)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if !xhat.Equal(x, 1e-8) {
		t.Errorf("estimate via adopted factor = %v, want %v", xhat, x)
	}
	// Dimension mismatches are rejected.
	s3, err := NewSystem(f.G, s.Paths()[:len(s.Paths())-1])
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if err := s3.AdoptSolver(denseSolver{fac: fac}); err == nil {
		t.Errorf("AdoptSolver accepted mismatched dimensions")
	}
	if err := s3.AdoptSolver(nil); err == nil {
		t.Errorf("AdoptSolver accepted nil solver")
	}
}

func TestEstimateConcurrent(t *testing.T) {
	// First factorization races with concurrent estimates; under -race
	// this guards the sync.Once paths in Factor/Operator.
	_, s := fig1System(t)
	x := make(la.Vector, s.NumLinks())
	for i := range x {
		x[i] = 10 * float64(i+1)
	}
	y, err := s.Measure(x)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for k := 0; k < 16; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			xhat, err := s.Estimate(y)
			if err != nil {
				errs <- err
				return
			}
			if !xhat.Equal(x, 1e-8) {
				errs <- errors.New("concurrent estimate mismatch")
			}
			if _, err := s.Operator(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
