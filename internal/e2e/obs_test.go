package e2e

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/serve"
)

// getRaw fetches base+path and returns the body.
func getRaw(t *testing.T, base, path string) []byte {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestObsSmoke drives concurrent load through the full stack and then
// checks the whole observability surface at once: the live /metrics
// exposition lints clean and carries runtime gauges plus per-stage
// latency histograms, /debug/traces shows an estimate request wrapping
// its solve, pprof answers, and client/server counters still reconcile
// exactly. check.sh runs this under -race.
func TestObsSmoke(t *testing.T) {
	scenarios := buildKinds(t, 1, KindClean, KindStealthy)
	h, c := newTestHarness(t, scenarios)
	ctx := context.Background()

	pre := scrape(t, h.URL())
	tr, err := RunLoad(ctx, LoadConfig{
		BaseURL:   h.URL(),
		Scenarios: scenarios,
		Requests:  120,
		Workers:   4,
		Seed:      3,
		FaultFrac: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := tr.Expected()
	if msgs := Reconcile(e.Wants(), pre, scrape(t, h.URL())); len(msgs) != 0 || e.Mismatches != 0 {
		t.Fatalf("reconcile under instrumentation (%d verdict mismatches): %v", e.Mismatches, msgs)
	}

	// One explicit estimate so the trace ring surely holds one.
	sc := scenarios[0]
	y := make(la.Vector, sc.Sys.NumPaths())
	if status, _, err := c.Estimate(ctx, sc.Name, []la.Vector{y}); err != nil || status != http.StatusOK {
		t.Fatalf("estimate: status %d err %v", status, err)
	}

	text := string(getRaw(t, h.URL(), "/metrics"))
	for _, err := range obs.Lint(text) {
		t.Errorf("lint: %v", err)
	}
	for _, want := range []string{
		"go_goroutines",
		"go_heap_alloc_bytes",
		`tomographyd_stage_latency_seconds_bucket{stage="tomo.solve"`,
		`tomographyd_stage_latency_seconds_bucket{stage="http.estimate"`,
		"tomographyd_estimate_latency_seconds_sum",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var dump serve.TracesResponse
	if err := json.Unmarshal(getRaw(t, h.URL(), "/debug/traces"), &dump); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range dump.Traces {
		if d.Root.Name != "http.estimate" {
			continue
		}
		for _, ch := range d.Root.Children {
			if ch.Name == "tomo.solve" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no http.estimate trace wrapping a tomo.solve in %d traces", len(dump.Traces))
	}

	getRaw(t, h.URL(), "/debug/pprof/")
}

// traceGoldenRun boots a harness on a fake microsecond-step clock,
// plays a fixed sequential request script, and returns the raw
// /debug/traces body. Every timestamp in the dump comes from the
// injected clock, so the bytes are a pure function of the code path.
func traceGoldenRun(t *testing.T) []byte {
	t.Helper()
	scenarios := buildKinds(t, 1, KindClean)
	h := NewHarness(serve.Config{
		RequestTimeout: -1,
		Clock:          obs.NewFakeClock(time.Unix(1700000000, 0), time.Microsecond),
		TraceCapacity:  8,
	})
	t.Cleanup(h.Close)
	c := NewClient(h.URL(), nil)
	ctx := context.Background()

	sc := scenarios[0]
	if _, err := c.Register(ctx, sc.Name, sc.Sys, 0); err != nil {
		t.Fatal(err)
	}
	y := make(la.Vector, sc.Sys.NumPaths())
	if status, _, err := c.Estimate(ctx, sc.Name, []la.Vector{y}); err != nil || status != http.StatusOK {
		t.Fatalf("estimate: status %d err %v", status, err)
	}
	if status, _, err := c.Inspect(ctx, sc.Name, []la.Vector{y}, 0); err != nil || status != http.StatusOK {
		t.Fatalf("inspect: status %d err %v", status, err)
	}
	if status, _, err := c.Healthz(ctx); err != nil || status != http.StatusOK {
		t.Fatalf("healthz: status %d err %v", status, err)
	}
	return getRaw(t, h.URL(), "/debug/traces")
}

// TestTraceGoldenDeterministic runs the fixed-seed script twice against
// fresh daemons and demands byte-identical /debug/traces output, then
// compares against the checked-in golden dump — so the full request
// trace shape (handler → registry lookup → factorization → solve →
// detect, with span timings under the fake clock) is pinned. Regenerate
// with:
//
//	go test ./internal/e2e -run TestTraceGoldenDeterministic -update
func TestTraceGoldenDeterministic(t *testing.T) {
	first := traceGoldenRun(t)
	second := traceGoldenRun(t)
	if string(first) != string(second) {
		t.Fatalf("trace dump not deterministic:\nrun1: %s\nrun2: %s", first, second)
	}

	path := filepath.Join("testdata", "traces.golden")
	if *update {
		if err := os.WriteFile(path, first, 0o644); err != nil {
			t.Fatalf("update %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (run with -update to create): %v", path, err)
	}
	if string(first) != string(want) {
		t.Errorf("trace dump drifted from golden:\ngot:  %s\nwant: %s", first, want)
	}
}
