package tomo

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/topo"
)

// factorNNZ returns nnz(L) of a sparse-route system's factor.
func factorNNZ(t *testing.T, s *System) int {
	t.Helper()
	sv, err := s.Solver()
	if err != nil {
		t.Fatal(err)
	}
	cs, ok := sv.(*cholSolver)
	if !ok {
		t.Fatalf("solver is %s, want the sparse factor", sv.Method())
	}
	return cs.f.NNZ()
}

// TestPathChurnKeepsFactor runs 1000 add+remove round trips on the 3k
// backbone fixture the stream benchmark serves. Each round trip
// refactors twice under the registered factor's ordering; the digest,
// nnz(L) and the estimates must come back unchanged every time, and
// match a freshly ordered factor of the same matrix. Reusing the
// ordering must never grow fill.
func TestPathChurnKeepsFactor(t *testing.T) {
	g, err := topo.Backbone(31, 3000)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := topo.BackbonePaths(g, 300, 31)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewSparseSystem(g, paths)
	if err != nil {
		t.Fatal(err)
	}
	digest, nnz := base.Digest(), factorNNZ(t, base)
	rng := rand.New(rand.NewSource(17))
	ys := randomRounds(rng, 4, base.NumPaths())
	want, err := base.EstimateBatch(ys)
	if err != nil {
		t.Fatal(err)
	}

	sys := base
	for i := 0; i < 1000; i++ {
		added, info, err := sys.AddPath(sys.Paths()[(i*7919)%sys.NumPaths()])
		if err != nil {
			t.Fatalf("round trip %d add: %v", i, err)
		}
		back, rinfo, err := added.RemovePath(added.NumPaths() - 1)
		if err != nil {
			t.Fatalf("round trip %d remove: %v", i, err)
		}
		if info.Method != "refactor" || rinfo.Method != "refactor" {
			t.Fatalf("round trip %d took %q/%q, want refactor", i, info.Method, rinfo.Method)
		}
		if factorNNZ(t, added) < nnz {
			t.Fatalf("round trip %d: adding a row shrank nnz(L) below %d", i, nnz)
		}
		if back.Digest() != digest || factorNNZ(t, back) != nnz {
			t.Fatalf("round trip %d: digest/nnz(L) %s/%d, want %s/%d",
				i, back.Digest(), factorNNZ(t, back), digest, nnz)
		}
		if i%100 == 99 {
			got, err := back.EstimateBatch(ys)
			if err != nil {
				t.Fatal(err)
			}
			for r := range ys {
				if !got[r].Equal(want[r], 1e-12*want[r].NormInf()) {
					t.Fatalf("round trip %d round %d: estimate drifted from the registered factor", i, r)
				}
			}
		}
		sys = back
	}

	for i, p := range sys.Paths() {
		if !slices.Equal(p.Links, paths[i].Links) {
			t.Fatalf("path %d changed through the churn", i)
		}
	}
	fresh, err := NewSparseSystem(g, sys.Paths())
	if err != nil {
		t.Fatal(err)
	}
	if n := factorNNZ(t, fresh); n != nnz {
		t.Fatalf("fresh ordering of the churned matrix has nnz(L) %d, want %d", n, nnz)
	}
	got, err := sys.EstimateBatch(ys)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fresh.EstimateBatch(ys)
	if err != nil {
		t.Fatal(err)
	}
	for r := range ys {
		if !got[r].Equal(ref[r], 1e-12*ref[r].NormInf()) {
			t.Fatalf("round %d: churned estimate differs from a fresh factor", r)
		}
	}
}

// TestSparseFillOnBackbones pins the fill of the approximate-minimum-
// degree ordering on the committed backbone fixtures within 1.25× of
// the fill an exact greedy minimum-degree order reaches (the reference
// column, counted by symbolic elimination).
func TestSparseFillOnBackbones(t *testing.T) {
	cases := []struct {
		seed         int64
		links, extra int
		ref          int
	}{
		{31, 1000, 100, 1374},       // churn-routed's stable backbones
		{31, 3000, 300, 4592},       // stream-backbone3k
		{31, 10000, 1000, 19859},    // 10k backbone
		{100, 100000, 1000, 109109}, // TestRegisterISPScale's fixture
	}
	for _, c := range cases {
		if c.links > 10000 && testing.Short() {
			continue
		}
		g, err := topo.Backbone(c.seed, c.links)
		if err != nil {
			t.Fatal(err)
		}
		paths, err := topo.BackbonePaths(g, c.extra, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSparseSystem(g, paths)
		if err != nil {
			t.Fatal(err)
		}
		nnz := factorNNZ(t, s)
		t.Logf("Backbone(%d, %d) + %d paths: nnz(R) %d, nnz(L) %d (reference %d)",
			c.seed, c.links, c.extra, s.CSR().NNZ(), nnz, c.ref)
		if float64(nnz) > 1.25*float64(c.ref) {
			t.Errorf("Backbone(%d, %d): nnz(L) %d exceeds 1.25× the minimum-degree reference %d",
				c.seed, c.links, nnz, c.ref)
		}
	}
}
