package e2e

import (
	"context"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tomo"
	"repro/internal/topo"
)

// TestSparseScaleOverHTTP registers a backbone big enough to cross
// DenseBudget through the real wire format and drives an estimate over
// live HTTP: the daemon's sparse factor must recover the injected link
// metrics to rounding, a same-digest re-registration must come from the
// solver cache, and /metrics must stay lint-clean.
func TestSparseScaleOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("sparse-scale HTTP round trip skipped in -short mode")
	}
	const links, extra = 3000, 300
	g, err := topo.Backbone(31, links)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := topo.BackbonePaths(g, extra, 31)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := tomo.NewSystem(g, paths)
	if err != nil {
		t.Fatal(err)
	}
	// paths×links ≈ 11M entries > DenseBudget: the default constructor
	// must have suppressed the dense mirror on its own.
	if sys.Dense() {
		t.Fatalf("%d paths × %d links unexpectedly within DenseBudget", sys.NumPaths(), sys.NumLinks())
	}

	h := NewHarness(serve.Config{RequestTimeout: -1})
	t.Cleanup(h.Close)
	c := NewClient(h.URL(), nil)
	ctx := context.Background()

	tr, err := c.Register(ctx, "backbone", sys, 0)
	if err != nil {
		t.Fatalf("register over HTTP: %v", err)
	}
	if tr == nil {
		t.Fatal("registration conflicted on a fresh daemon")
	}

	x := make(la.Vector, sys.NumLinks())
	for i := range x {
		x[i] = 1 + float64(i%13)/10
	}
	y, err := sys.Measure(x)
	if err != nil {
		t.Fatal(err)
	}
	status, er, err := c.Estimate(ctx, "backbone", []la.Vector{y})
	if err != nil || status != http.StatusOK {
		t.Fatalf("estimate: status %d err %v", status, err)
	}
	if len(er.Results) != 1 || len(er.Results[0].XHat) != sys.NumLinks() {
		t.Fatalf("estimate shape: %d results", len(er.Results))
	}
	for i, v := range er.Results[0].XHat {
		if math.Abs(v-x[i]) > 1e-9 {
			t.Fatalf("xhat[%d] = %g, want %g", i, v, x[i])
		}
	}

	text := string(getRaw(t, h.URL(), "/metrics"))
	for _, lerr := range obs.Lint(text) {
		t.Errorf("lint: %v", lerr)
	}
	if _, err := c.Register(ctx, "backbone-again", sys, 0); err != nil {
		t.Fatalf("re-register over HTTP: %v", err)
	}
	snap, err := c.MetricsSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap["tomographyd_solver_cache_misses_total"] != 1 || snap["tomographyd_solver_cache_hits_total"] != 1 {
		t.Errorf("solver cache misses/hits = %g/%g, want 1/1",
			snap["tomographyd_solver_cache_misses_total"], snap["tomographyd_solver_cache_hits_total"])
	}
	if strings.Contains(text, "tomographyd_solver_iterations") {
		t.Error("/metrics still exports iterative-solver telemetry")
	}
}
