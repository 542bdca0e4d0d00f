package tomo

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/la"
	"repro/internal/topo"
)

func randomRounds(rng *rand.Rand, n, paths int) []la.Vector {
	ys := make([]la.Vector, n)
	for i := range ys {
		y := make(la.Vector, paths)
		for j := range y {
			y[j] = 10 * rng.Float64()
		}
		ys[i] = y
	}
	return ys
}

// The dense batched route applies the same memoized operator as
// per-round Estimate, so the results must be bit-identical — the
// batch API cannot perturb the determinism contract.
func TestEstimateBatchDenseBitExact(t *testing.T) {
	_, sys := fig1System(t)
	rng := rand.New(rand.NewSource(5))
	ys := randomRounds(rng, 50, sys.NumPaths())
	batch, err := sys.EstimateBatch(ys)
	if err != nil {
		t.Fatalf("EstimateBatch: %v", err)
	}
	for i, y := range ys {
		want, err := sys.Estimate(y)
		if err != nil {
			t.Fatalf("Estimate round %d: %v", i, err)
		}
		if !batch[i].Equal(want, 0) {
			t.Fatalf("round %d: batched estimate not bit-identical to one-shot", i)
		}
	}
}

// The sparse batched route solves every round against one warm factor;
// each round must match per-round Estimate bit for bit and land on the
// dense oracle's minimizer to rounding.
func TestEstimateBatchSparseWarmAgrees(t *testing.T) {
	f, dense := fig1System(t)
	sp, err := NewSparseSystem(f.G, dense.Paths())
	if err != nil {
		t.Fatalf("NewSparseSystem: %v", err)
	}
	rng := rand.New(rand.NewSource(9))
	ys := randomRounds(rng, 40, sp.NumPaths())
	batch, err := sp.EstimateBatch(ys)
	if err != nil {
		t.Fatalf("EstimateBatch: %v", err)
	}
	for i, y := range ys {
		want, err := dense.Estimate(y)
		if err != nil {
			t.Fatalf("dense Estimate round %d: %v", i, err)
		}
		if !batch[i].Equal(want, 1e-12*(1+want.Norm2())) {
			t.Fatalf("round %d: sparse estimate disagrees with dense oracle", i)
		}
		one, err := sp.Estimate(y)
		if err != nil {
			t.Fatal(err)
		}
		if !batch[i].Equal(one, 0) {
			t.Fatalf("round %d: batched estimate not bit-identical to one-shot", i)
		}
	}
}

func TestEstimateBatchErrors(t *testing.T) {
	_, sys := fig1System(t)
	if _, err := sys.EstimateBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	ys := []la.Vector{make(la.Vector, sys.NumPaths()), make(la.Vector, 3)}
	if _, err := sys.EstimateBatch(ys); err == nil {
		t.Fatal("mis-shaped round accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.EstimateBatchCtx(ctx, ys[:1]); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch: err = %v, want context.Canceled", err)
	}
}

// EstimateBatchInto and ResidualInto write into caller buffers, reused
// here across batches with the previous batch's values still in them:
// on both routes they must match the fresh-buffer EstimateBatch and
// Residual bit for bit, with the same errors.
func TestEstimateBatchIntoMatches(t *testing.T) {
	f, dense := fig1System(t)
	sp, err := NewSparseSystem(f.G, dense.Paths())
	if err != nil {
		t.Fatalf("NewSparseSystem: %v", err)
	}
	rng := rand.New(rand.NewSource(13))
	for _, sys := range []*System{dense, sp} {
		xs := make([]la.Vector, 6)
		for i := range xs {
			xs[i] = make(la.Vector, sys.NumLinks())
		}
		res := make(la.Vector, sys.NumPaths())
		for batch := 0; batch < 3; batch++ {
			ys := randomRounds(rng, len(xs), sys.NumPaths())
			want, err := sys.EstimateBatch(ys)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.EstimateBatchInto(context.Background(), xs, ys); err != nil {
				t.Fatalf("dense=%v: EstimateBatchInto: %v", sys.Dense(), err)
			}
			for i := range ys {
				if !xs[i].Equal(want[i], 0) {
					t.Fatalf("dense=%v batch %d round %d: estimate not bit-identical", sys.Dense(), batch, i)
				}
				wantRes, err := sys.Residual(want[i], ys[i])
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.ResidualInto(res, xs[i], ys[i]); err != nil {
					t.Fatal(err)
				}
				if !res.Equal(wantRes, 0) {
					t.Fatalf("dense=%v batch %d round %d: residual not bit-identical", sys.Dense(), batch, i)
				}
			}
		}
		bad := []la.Vector{make(la.Vector, sys.NumPaths()), make(la.Vector, 3)}
		_, wantErr := sys.EstimateBatch(bad)
		if err := sys.EstimateBatchInto(context.Background(), xs[:2], bad); err == nil || err.Error() != wantErr.Error() {
			t.Errorf("dense=%v: mis-shaped round: err %v, want %v", sys.Dense(), err, wantErr)
		}
		if err := sys.EstimateBatchInto(context.Background(), xs[:1], bad); !errors.Is(err, la.ErrShape) {
			t.Errorf("dense=%v: output count mismatch: err %v", sys.Dense(), err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := sys.EstimateBatchInto(ctx, xs[:1], bad[:1]); !errors.Is(err, context.Canceled) {
			t.Errorf("dense=%v: canceled batch: err %v", sys.Dense(), err)
		}
		if err := sys.ResidualInto(res, xs[0], bad[1]); !errors.Is(err, la.ErrShape) {
			t.Errorf("dense=%v: mis-shaped residual: err %v", sys.Dense(), err)
		}
	}
}

// freshEstimates builds a brand-new System over the same paths and
// returns its estimates — the cold oracle a mutated system must match.
func freshEstimates(t *testing.T, g *graph.Graph, paths []graph.Path, sparse bool, ys []la.Vector) (*System, []la.Vector) {
	t.Helper()
	var (
		sys *System
		err error
	)
	if sparse {
		sys, err = NewSparseSystem(g, paths)
	} else {
		sys, err = NewSystem(g, paths)
	}
	if err != nil {
		t.Fatalf("fresh system: %v", err)
	}
	out, err := sys.EstimateBatch(ys)
	if err != nil {
		t.Fatalf("fresh EstimateBatch: %v", err)
	}
	return sys, out
}

func TestAddRemovePathDenseMatchesFreshSystem(t *testing.T) {
	f, sys := fig1System(t)
	if _, err := sys.Solver(); err != nil {
		t.Fatalf("warm solver: %v", err)
	}
	dup := sys.Paths()[3].Clone()

	added, info, err := sys.AddPath(dup)
	if err != nil {
		t.Fatalf("AddPath: %v", err)
	}
	if info.Method != "cold" {
		t.Fatalf("AddPath method = %q, want cold", info.Method)
	}
	if added.NumPaths() != sys.NumPaths()+1 || sys.NumPaths() != 23 {
		t.Fatalf("path counts: base %d, added %d", sys.NumPaths(), added.NumPaths())
	}
	rng := rand.New(rand.NewSource(11))
	ys := randomRounds(rng, 10, added.NumPaths())
	fresh, want, tol := (*System)(nil), ([]la.Vector)(nil), 1e-9
	fresh, want = freshEstimates(t, f.G, added.Paths(), false, ys)
	if added.Digest() != fresh.Digest() {
		t.Fatal("AddPath digest differs from freshly built system")
	}
	got, err := added.EstimateBatch(ys)
	if err != nil {
		t.Fatalf("EstimateBatch on added: %v", err)
	}
	for i := range ys {
		if !got[i].Equal(want[i], tol*(1+want[i].Norm2())) {
			t.Fatalf("round %d: updated-system estimate diverges from fresh system", i)
		}
	}

	// Remove the duplicate again, back to 23 paths.
	removed, info, err := added.RemovePath(added.NumPaths() - 1)
	if err != nil {
		t.Fatalf("RemovePath: %v", err)
	}
	if info.Method != "cold" {
		t.Fatalf("RemovePath method = %q, want cold", info.Method)
	}
	if removed.Digest() != sys.Digest() {
		t.Fatal("add+remove round trip changed the routing-matrix digest")
	}
	ys = randomRounds(rng, 10, removed.NumPaths())
	for i, y := range ys {
		want, err := sys.Estimate(y)
		if err != nil {
			t.Fatalf("base Estimate: %v", err)
		}
		got, err := removed.Estimate(y)
		if err != nil {
			t.Fatalf("round-trip Estimate: %v", err)
		}
		if !got.Equal(want, tol*(1+want.Norm2())) {
			t.Fatalf("round %d: round-trip estimate diverges from base system", i)
		}
	}
}

func TestAddRemovePathSparseRoutes(t *testing.T) {
	f, dense := fig1System(t)
	sp, err := NewSparseSystem(f.G, dense.Paths())
	if err != nil {
		t.Fatalf("NewSparseSystem: %v", err)
	}
	if _, err := sp.Solver(); err != nil {
		t.Fatalf("warm solver: %v", err)
	}
	dup := sp.Paths()[0].Clone()
	added, info, err := sp.AddPath(dup)
	if err != nil {
		t.Fatalf("AddPath: %v", err)
	}
	if info.Method != "refactor" {
		t.Fatalf("sparse AddPath method = %q, want refactor", info.Method)
	}
	if added.Dense() {
		t.Fatal("sparse system lost forced-sparse representation through AddPath")
	}
	rng := rand.New(rand.NewSource(13))
	ys := randomRounds(rng, 5, added.NumPaths())
	_, want := freshEstimates(t, f.G, added.Paths(), false, ys)
	got, err := added.EstimateBatch(ys)
	if err != nil {
		t.Fatalf("EstimateBatch: %v", err)
	}
	for i := range ys {
		if !got[i].Equal(want[i], 1e-12*(1+want[i].Norm2())) {
			t.Fatalf("round %d: refactored estimate diverges from dense oracle", i)
		}
	}

	removed, info, err := added.RemovePath(added.NumPaths() - 1)
	if err != nil {
		t.Fatalf("RemovePath: %v", err)
	}
	if info.Method != "refactor" {
		t.Fatalf("sparse RemovePath method = %q, want refactor", info.Method)
	}
	if removed.Digest() != sp.Digest() {
		t.Fatal("sparse add+remove round trip changed the digest")
	}
}

// Removing the only path covering a link must fail explicitly on both
// routes — never return a system with a garbage factor.
func TestRemovePathToUnidentifiableErrors(t *testing.T) {
	g := graph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	ab, err := g.AddLink(a, b)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := g.AddLink(b, c)
	if err != nil {
		t.Fatal(err)
	}
	paths := []graph.Path{
		{Nodes: []graph.NodeID{a, b}, Links: []graph.LinkID{ab}},
		{Nodes: []graph.NodeID{a, b, c}, Links: []graph.LinkID{ab, bc}},
	}
	for _, sparse := range []bool{false, true} {
		var sys *System
		if sparse {
			sys, err = NewSparseSystem(g, paths)
		} else {
			sys, err = NewSystem(g, paths)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Solver(); err != nil {
			t.Fatalf("sparse=%v: base system not identifiable: %v", sparse, err)
		}
		// Removing the 2-link path leaves link bc uncovered.
		if got, _, err := sys.RemovePath(1); !errors.Is(err, ErrNotIdentifiable) || got != nil {
			t.Fatalf("sparse=%v: RemovePath(1): sys %v, err %v; want nil + ErrNotIdentifiable", sparse, got, err)
		}
		// Index guards.
		if _, _, err := sys.RemovePath(2); !errors.Is(err, la.ErrShape) {
			t.Fatalf("sparse=%v: out-of-range RemovePath err = %v", sparse, err)
		}
	}
}

// Acceptance bar: at 10k links (sparse route) a path mutation through
// AddPath must be ≥ 5x faster than a cold rebuild, because it reuses
// the parent factor's ordering and reruns only the symbolic and numeric
// passes.
func TestPathUpdateSpeedupAt10kLinks(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-link speedup bar skipped in -short")
	}
	const links = 10_000
	g, err := topo.Backbone(7, links)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := topo.BackbonePaths(g, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSparseSystem(g, paths)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Solver(); err != nil {
		t.Fatal(err)
	}
	dup := paths[len(paths)-1].Clone()

	// Best of five per arm: the minimum filters out the repetitions that
	// a garbage collection or another process interrupted.
	cold, warm := time.Duration(1<<62), time.Duration(1<<62)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		cs, err := NewSparseSystem(g, append(append([]graph.Path(nil), paths...), dup))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cs.Solver(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d < cold {
			cold = d
		}

		t0 = time.Now()
		ns, info, err := sys.AddPath(dup)
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d < warm {
			warm = d
		}
		if info.Method != "refactor" {
			t.Fatalf("method = %q, want refactor", info.Method)
		}
		if _, err := ns.Solver(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("10k-link path add: cold rebuild %v, refactor route %v (%.1fx)", cold, warm, float64(cold)/float64(warm))
	if warm*5 > cold {
		t.Fatalf("path update %v not ≥5x faster than cold rebuild %v", warm, cold)
	}
}

// BenchmarkEstimateBatch measures the amortized batched estimate
// against a loop of one-shot estimates, on both solver routes.
func BenchmarkEstimateBatch(b *testing.B) {
	f := topo.Fig1()
	paths, _, err := SelectPaths(f.G, f.Monitors, SelectOptions{Exhaustive: true, TargetPaths: 23})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	mk := func(sparse bool) *System {
		var sys *System
		var err error
		if sparse {
			sys, err = NewSparseSystem(f.G, paths)
		} else {
			sys, err = NewSystem(f.G, paths)
		}
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Solver(); err != nil {
			b.Fatal(err)
		}
		return sys
	}
	// Streaming rounds drift: consecutive measurements differ by a small
	// perturbation (congestion evolving).
	const rounds = 1000
	ys := make([]la.Vector, rounds)
	base := randomRounds(rng, 1, len(paths))[0]
	for i := range ys {
		y := base.Clone()
		for j := range y {
			y[j] += 0.01 * rng.NormFloat64()
		}
		ys[i] = y
		base = y
	}

	b.Run("dense-batch-1k", func(b *testing.B) {
		sys := mk(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.EstimateBatch(ys); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense-loop-1k", func(b *testing.B) {
		sys := mk(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, y := range ys {
				if _, err := sys.Estimate(y); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("sparse-batch-1k", func(b *testing.B) {
		sys := mk(true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.EstimateBatch(ys); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sparse-loop-1k", func(b *testing.B) {
		sys := mk(true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, y := range ys {
				if _, err := sys.Estimate(y); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
