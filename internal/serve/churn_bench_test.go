package serve

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/tomo"
	"repro/internal/topo"
)

// churnBenchSystem builds a backbone measurement system at the given
// link scale on the sparse route, the one every served topology takes.
func churnBenchSystem(b *testing.B, links int) *tomo.System {
	b.Helper()
	g, err := topo.Backbone(int64(links), links)
	if err != nil {
		b.Fatal(err)
	}
	paths, err := topo.BackbonePaths(g, links/10, int64(links))
	if err != nil {
		b.Fatal(err)
	}
	sys, err := tomo.NewSparseSystem(g, paths)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// reportQuantiles attaches per-iteration p50/p95 latency to the
// benchmark output — the tail is what a churn campaign feels at each
// epoch boundary, and ns/op alone hides it.
func reportQuantiles(b *testing.B, durs []time.Duration) {
	b.Helper()
	if len(durs) == 0 {
		return
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	q := func(f float64) float64 {
		return float64(durs[int(f*float64(len(durs)-1))])
	}
	b.ReportMetric(q(0.50), "p50-ns")
	b.ReportMetric(q(0.95), "p95-ns")
}

// BenchmarkChurnReregister measures the structural-churn epoch route:
// evict the topology and register it again (build system state, digest,
// adopt the solver, build the detector). The solver cache is warmed
// before the timer — eviction deliberately keeps the digest-keyed
// factorization, so every re-registration after the first is warm,
// which is exactly the steady state a flapping network puts the daemon
// in.
func BenchmarkChurnReregister(b *testing.B) {
	for _, links := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("links=%d", links), func(b *testing.B) {
			sys := churnBenchSystem(b, links)
			reg := NewRegistry(NewMetrics())
			if _, err := reg.RegisterSystem("churn", sys, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := reg.Evict("churn"); err != nil {
				b.Fatal(err)
			}
			durs := make([]time.Duration, 0, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := reg.RegisterSystem("churn", sys, 0); err != nil {
					b.Fatal(err)
				}
				if _, err := reg.Evict("churn"); err != nil {
					b.Fatal(err)
				}
				durs = append(durs, time.Since(t0))
			}
			b.StopTimer()
			reportQuantiles(b, durs)
		})
	}
}

// BenchmarkChurnMutate measures the flap-only epoch route: one session
// paths round trip (AddPath of the rerouted walk, RemovePath of the
// old index) against the same warm system the re-registration bench
// uses: two refactors under the parent factor's ordering. Note the
// comparison against BenchmarkChurnReregister is asymmetric: a flap
// changes the routing matrix, so its digest misses the solver cache and
// the re-registration alternative would pay a cold factorization — the
// incremental derivation here is what keeps flap-only churn off that
// path, while the warm re-register number is the recover-to-known-
// config case.
func BenchmarkChurnMutate(b *testing.B) {
	for _, links := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("links=%d", links), func(b *testing.B) {
			sys := churnBenchSystem(b, links)
			if _, err := sys.Solver(); err != nil {
				b.Fatal(err)
			}
			flap := sys.Paths()[sys.NumPaths()-1]
			durs := make([]time.Duration, 0, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				ns, _, err := sys.AddPath(flap)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := ns.RemovePath(ns.NumPaths() - 2); err != nil {
					b.Fatal(err)
				}
				durs = append(durs, time.Since(t0))
			}
			b.StopTimer()
			reportQuantiles(b, durs)
		})
	}
}
