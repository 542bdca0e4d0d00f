package tomo

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/la"
	"repro/internal/topo"
)

// benchBackbone memoizes the generated topologies: at 100k links the
// preferential-attachment build plus shortest-path mesh dominates the
// measured region otherwise.
var benchBackbones = map[int]struct {
	g     *graph.Graph
	paths []graph.Path
}{}

func backboneSystemInputs(b *testing.B, links int) (*graph.Graph, []graph.Path) {
	b.Helper()
	if got, ok := benchBackbones[links]; ok {
		return got.g, got.paths
	}
	g, err := topo.Backbone(int64(links), links)
	if err != nil {
		b.Fatal(err)
	}
	paths, err := topo.BackbonePaths(g, links/10, int64(links))
	if err != nil {
		b.Fatal(err)
	}
	benchBackbones[links] = struct {
		g     *graph.Graph
		paths []graph.Path
	}{g, paths}
	return g, paths
}

// scaleBenchLinks are the sparse-route scales: the two benchmark
// workload fixtures (1k, 3k) and the ISP acceptance scale (100k).
var scaleBenchLinks = []int{1000, 3000, 100000}

// BenchmarkSparseFactor measures what a registration that misses the
// solver cache pays on the sparse route: CSR assembly, the
// approximate-minimum-degree ordering and the sparse Cholesky factor —
// never a dense P×L or L×L array, even at 100k links.
func BenchmarkSparseFactor(b *testing.B) {
	for _, links := range scaleBenchLinks {
		g, paths := backboneSystemInputs(b, links)
		b.Run(fmt.Sprintf("links=%d", links), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := NewSparseSystem(g, paths)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Solver(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSparseRefactor measures a session path round trip on the
// sparse route: AddPath then RemovePath, each a refactor under the
// parent factor's ordering.
func BenchmarkSparseRefactor(b *testing.B) {
	for _, links := range scaleBenchLinks {
		g, paths := backboneSystemInputs(b, links)
		s, err := NewSparseSystem(g, paths)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Solver(); err != nil {
			b.Fatal(err)
		}
		dup := paths[len(paths)-1]
		b.Run(fmt.Sprintf("links=%d", links), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				added, _, err := s.AddPath(dup)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := added.RemovePath(added.NumPaths() - 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSparseEstimate measures the steady-state estimate on a warm
// system: Rᵀy and two triangular solves against the cached factor.
func BenchmarkSparseEstimate(b *testing.B) {
	for _, links := range scaleBenchLinks {
		g, paths := backboneSystemInputs(b, links)
		s, err := NewSparseSystem(g, paths)
		if err != nil {
			b.Fatal(err)
		}
		x := make(la.Vector, g.NumLinks())
		for i := range x {
			x[i] = 1 + float64(i%9)/10
		}
		y, err := s.Measure(x)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Solver(); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("links=%d", links), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Estimate(y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDenseFactor pins the in-process dense baseline at 1k links,
// beside BenchmarkSparseFactor's 1k case.
func BenchmarkDenseFactor(b *testing.B) {
	g, paths := backboneSystemInputs(b, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewSystem(g, paths)
		if err != nil {
			b.Fatal(err)
		}
		if !s.Dense() {
			b.Fatal("1k-link system should be within DenseBudget")
		}
		if _, err := s.Factor(); err != nil {
			b.Fatal(err)
		}
	}
}
