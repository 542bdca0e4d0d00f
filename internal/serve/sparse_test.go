package serve

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/la"
	"repro/internal/tomo"
	"repro/internal/topo"
)

// backboneSparse builds a backbone measurement system on the forced
// sparse route: links-scale topology, one-hop probe per link plus a
// multi-hop mesh.
func backboneSparse(t testing.TB, seed int64, links, extra int) *tomo.System {
	t.Helper()
	g, err := topo.Backbone(seed, links)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := topo.BackbonePaths(g, extra, seed)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := tomo.NewSparseSystem(g, paths)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// Registering a sparse system factors it once, counting a solver-cache
// miss; its estimates recover noise-free metrics to rounding, and the
// direct solver has no iteration telemetry to export.
func TestRegisterSparseSystemFeedsSolverMetrics(t *testing.T) {
	m := NewMetrics()
	reg := NewRegistry(m)
	sys := backboneSparse(t, 11, 400, 50)
	e, err := reg.RegisterSystem("bb", sys, 0)
	if err != nil {
		t.Fatalf("RegisterSystem: %v", err)
	}
	if e.Sys.Dense() {
		t.Fatal("sparse system registered with a dense mirror")
	}
	if m.CacheMisses.Load() != 1 || m.CacheHits.Load() != 0 {
		t.Errorf("cache hits/misses = %d/%d, want 0/1", m.CacheHits.Load(), m.CacheMisses.Load())
	}
	x := make(la.Vector, sys.NumLinks())
	for i := range x {
		x[i] = 1 + float64(i%7)/10
	}
	y, err := sys.Measure(x)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		xhat, err := e.Sys.Estimate(y)
		if err != nil {
			t.Fatal(err)
		}
		if !xhat.Equal(x, 1e-12) {
			t.Fatal("noise-free estimate did not recover the true metrics")
		}
	}
	var b strings.Builder
	m.WritePrometheus(&b)
	text := b.String()
	if !strings.Contains(text, "tomographyd_solver_cache_misses_total 1") {
		t.Error("/metrics exposition missing the solver-cache miss")
	}
	if strings.Contains(text, "tomographyd_solver_iterations") {
		t.Error("/metrics still exports iterative-solver telemetry")
	}
}

func TestSparseSolverCacheShared(t *testing.T) {
	m := NewMetrics()
	reg := NewRegistry(m)
	a := backboneSparse(t, 12, 300, 40)
	e1, err := reg.RegisterSystem("a", a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e1.CacheHit {
		t.Error("first sparse registration hit the cache")
	}
	// Same topology recipe ⇒ same routing matrix ⇒ same digest: the
	// second registration must adopt the cached sparse factor and skip
	// ordering and factorization.
	b := backboneSparse(t, 12, 300, 40)
	e2, err := reg.RegisterSystem("b", b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !e2.CacheHit {
		t.Error("identical sparse routing matrix missed the solver cache")
	}
	if e1.Digest != e2.Digest {
		t.Error("digests differ for identical sparse R")
	}
	if m.CacheHits.Load() != 1 || m.CacheMisses.Load() != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", m.CacheHits.Load(), m.CacheMisses.Load())
	}
}

// TestRegisterISPScale is the subsystem's acceptance check: register a
// ≥100k-link backbone and run an estimate through the full registry
// path without ever materializing a dense P×L or L×L operator.
func TestRegisterISPScale(t *testing.T) {
	if testing.Short() {
		t.Skip("ISP-scale registration skipped in -short mode")
	}
	m := NewMetrics()
	reg := NewRegistry(m)
	sys := backboneSparse(t, 100, 100000, 1000)
	if sys.NumLinks() < 100000 {
		t.Fatalf("backbone has %d links, want ≥ 100000", sys.NumLinks())
	}
	e, err := reg.RegisterSystem("isp", sys, 0)
	if err != nil {
		t.Fatalf("RegisterSystem at 100k links: %v", err)
	}
	if e.Sys.Dense() {
		t.Fatal("100k-link system materialized a dense mirror")
	}
	x := make(la.Vector, sys.NumLinks())
	for i := range x {
		x[i] = 1 + float64(i%11)/10
	}
	y, err := sys.Measure(x)
	if err != nil {
		t.Fatal(err)
	}
	xhat, err := e.Sys.Estimate(y)
	if err != nil {
		t.Fatalf("Estimate at 100k links: %v", err)
	}
	if !xhat.Equal(x, 1e-9) {
		t.Fatal("noise-free 100k-link estimate did not recover the true metrics")
	}
	if m.CacheMisses.Load() != 1 {
		t.Errorf("cache misses = %d, want 1", m.CacheMisses.Load())
	}
}

// Eight goroutines batch-estimate through one cached factor at once:
// two registrations share it, and every goroutine's answers must equal
// a sequential pass bit for bit. Run under -race this pins the factor
// as immutable shared state.
func TestCachedFactorConcurrentEstimateBatch(t *testing.T) {
	reg := NewRegistry(NewMetrics())
	a, err := reg.RegisterSystem("a", backboneSparse(t, 31, 3000, 300), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.RegisterSystem("b", backboneSparse(t, 31, 3000, 300), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !b.CacheHit {
		t.Fatal("second registration missed the solver cache")
	}
	ys := make([]la.Vector, 8)
	for r := range ys {
		ys[r] = make(la.Vector, a.Sys.NumPaths())
		for i := range ys[r] {
			ys[r][i] = float64((i*31+r*7)%17) + 0.5
		}
	}
	want, err := a.Sys.EstimateBatch(ys)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(e *Entry) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				got, err := e.Sys.EstimateBatch(ys)
				if err != nil {
					errs <- err
					return
				}
				for r := range ys {
					if !got[r].Equal(want[r], 0) {
						errs <- fmt.Errorf("round %d differs from the sequential answer", r)
						return
					}
				}
			}
		}([]*Entry{a, b}[g%2])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
