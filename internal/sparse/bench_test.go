package sparse

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/la"
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

func BenchmarkSparseGramApply(b *testing.B) {
	for _, links := range []int{1000, 10000, 100000} {
		a, _ := benchMatrix(links, links/5, 8, 2)
		g := a.Gram()
		x := make(la.Vector, links)
		for i := range x {
			x[i] = float64(i%5) - 2
		}
		b.Run(fmt.Sprintf("links=%d", links), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.Apply(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSparseCGLS(b *testing.B) {
	for _, links := range []int{1000, 10000, 100000} {
		a, rhs := benchMatrix(links, links/5, 8, 3)
		b.Run(fmt.Sprintf("links=%d", links), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := CGLS(a, rhs, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("did not converge")
				}
			}
		})
	}
}

func BenchmarkSparseCondEst(b *testing.B) {
	for _, links := range []int{1000, 10000, 100000} {
		a, _ := benchMatrix(links, links/5, 8, 5)
		b.Run(fmt.Sprintf("links=%d", links), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := CondEst(a, 0); err != nil {
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
