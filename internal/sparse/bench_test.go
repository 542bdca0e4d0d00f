package sparse

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/topo"
)

// benchMatrix builds a routing-matrix-shaped CSR: an identity block
// (one-hop probes) stacked over sparse multi-hop rows, matching the
// [I; S] structure tomo feeds the solvers.
func benchMatrix(links, multihop, hops int, seed int64) (*CSR, la.Vector) {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]Triplet, 0, links+multihop*hops)
	for j := 0; j < links; j++ {
		ts = append(ts, Triplet{Row: j, Col: j, Val: 1})
	}
	for i := 0; i < multihop; i++ {
		for h := 0; h < hops; h++ {
			ts = append(ts, Triplet{Row: links + i, Col: rng.Intn(links), Val: 1})
		}
	}
	a, err := FromTriplets(links+multihop, links, ts)
	if err != nil {
		panic(err)
	}
	b := make(la.Vector, links+multihop)
	for i := range b {
		b[i] = rng.Float64()
	}
	return a, b
}

func BenchmarkSparseMulVec(b *testing.B) {
	for _, links := range []int{1000, 10000, 100000} {
		a, _ := benchMatrix(links, links/5, 8, 1)
		x := make(la.Vector, links)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		b.Run(fmt.Sprintf("links=%d", links), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := a.MulVec(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// backboneMatrix builds the routing matrix of topo.Backbone(31, links)
// with BackbonePaths(links/10, 31) — the shape every served topology
// has, and the fixture of the tomobench stream and churn workloads —
// plus a noise-free right-hand side.
func backboneMatrix(b *testing.B, links int) (*CSR, la.Vector) {
	b.Helper()
	g, err := topo.Backbone(31, links)
	if err != nil {
		b.Fatal(err)
	}
	paths, err := topo.BackbonePaths(g, links/10, 31)
	if err != nil {
		b.Fatal(err)
	}
	var ts []Triplet
	for i, p := range paths {
		for _, l := range p.Links {
			ts = append(ts, Triplet{Row: i, Col: int(l), Val: 1})
		}
	}
	a, err := FromTriplets(len(paths), g.NumLinks(), ts)
	if err != nil {
		b.Fatal(err)
	}
	x := make(la.Vector, a.Cols())
	for i := range x {
		x[i] = 1 + float64(i%9)/10
	}
	y, err := a.MulVec(x)
	if err != nil {
		b.Fatal(err)
	}
	return a, y
}

var choleskyBenchLinks = []int{1000, 3000, 100000}

// BenchmarkSparseCholeskyFactor times a cold factorization: ordering,
// symbolic and numeric passes — what a registration that misses the
// solver cache pays.
func BenchmarkSparseCholeskyFactor(b *testing.B) {
	for _, links := range choleskyBenchLinks {
		a, _ := backboneMatrix(b, links)
		b.Run(fmt.Sprintf("links=%d", links), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FactorCholesky(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSparseCholeskyRefactor times a factorization under a reused
// ordering — what a session path add or remove pays.
func BenchmarkSparseCholeskyRefactor(b *testing.B) {
	for _, links := range choleskyBenchLinks {
		a, _ := backboneMatrix(b, links)
		c, err := FactorCholesky(a)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("links=%d", links), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Refactor(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSparseCholeskySolve times one least-squares estimate against
// a warm factor: Rᵀy plus two triangular solves.
func BenchmarkSparseCholeskySolve(b *testing.B) {
	for _, links := range choleskyBenchLinks {
		a, y := backboneMatrix(b, links)
		c, err := FactorCholesky(a)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("links=%d", links), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rty, err := a.MulVecT(y)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Solve(rty); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSparseFromTriplets(b *testing.B) {
	for _, links := range []int{1000, 10000, 100000} {
		rng := rand.New(rand.NewSource(6))
		rows := links + links/5
		ts := make([]Triplet, 0, links+links*8/5)
		for j := 0; j < links; j++ {
			ts = append(ts, Triplet{Row: j, Col: j, Val: 1})
		}
		for i := links; i < rows; i++ {
			for h := 0; h < 8; h++ {
				ts = append(ts, Triplet{Row: i, Col: rng.Intn(links), Val: 1})
			}
		}
		b.Run(fmt.Sprintf("links=%d", links), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FromTriplets(rows, links, ts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
