package e2e

import (
	"context"
	"testing"

	"repro/internal/serve"
)

// soakChaos is the fault mix the determinism soak and the golden
// transcript share: aggressive enough that every fault class fires, with
// zero latency so a 10k-request run stays fast.
var soakChaos = ChaosConfig{Drop: 0.03, Truncate: 0.04, Reset: 0.015}

// runSoak boots a fresh harness, registers the scenarios, runs the load
// plan, and returns the transcript, the harness, and the messages of
// reconciling the run against the harness's /metrics.
func runSoak(t *testing.T, scenarios []*Scenario, requests int, seed int64) (*Transcript, *Harness, []string) {
	t.Helper()
	h, _ := newTestHarness(t, scenarios)
	pre := scrape(t, h.URL())
	tr, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:   h.URL(),
		Scenarios: scenarios,
		Requests:  requests,
		Workers:   12,
		Seed:      seed,
		Chaos:     soakChaos,
		FaultFrac: 0.08,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, h, Reconcile(tr.Expected().Wants(), pre, scrape(t, h.URL()))
}

// TestSoakDeterministicDigest is the tentpole invariant: two fresh
// server+generator stacks fed the same seed must produce byte-identical
// transcript digests — across 12 concurrent workers, fault injection,
// and thousands of requests — and each server's counters must reconcile
// exactly with the client-side expectation.
func TestSoakDeterministicDigest(t *testing.T) {
	requests := 12000
	if testing.Short() {
		requests = 2000
	}
	scenarios := buildKinds(t, 1, KindClean, KindStealthy, KindChosenVictim)

	tr1, h1, msgs1 := runSoak(t, scenarios, requests, 1234)
	tr2, h2, msgs2 := runSoak(t, scenarios, requests, 1234)

	d1, d2 := tr1.Digest(), tr2.Digest()
	if d1 != d2 {
		t.Errorf("same-seed digests diverge:\n  run1 %s\n  run2 %s\nrun1:\n%s\nrun2:\n%s",
			d1, d2, tr1.Summary(), tr2.Summary())
	}
	for i, pair := range []struct {
		tr   *Transcript
		h    *Harness
		msgs []string
	}{{tr1, h1, msgs1}, {tr2, h2, msgs2}} {
		e := pair.tr.Expected()
		if len(pair.msgs) != 0 || e.Mismatches != 0 {
			t.Errorf("run %d does not reconcile (%d verdict mismatches): %v", i+1, e.Mismatches, pair.msgs)
		}
		if e.Dropped == 0 || e.Sent == 0 {
			t.Errorf("run %d: sent %d dropped %d — chaos mix not exercised", i+1, e.Sent, e.Dropped)
		}
		// Three registrations of one routing matrix: one factorization.
		m := pair.h.Server.Metrics()
		if hits, misses := m.CacheHits.Load(), m.CacheMisses.Load(); hits != 2 || misses != 1 {
			t.Errorf("run %d: solver cache hits/misses = %d/%d, want 2/1", i+1, hits, misses)
		}
	}

	// A different seed must produce a different plan (digest includes the
	// seed, so compare a seed-free projection: the per-op counts).
	tr3, _, _ := runSoak(t, scenarios, requests/4, 99)
	if tr3.Digest() == d1 {
		t.Error("different seed reproduced the same digest")
	}
}

// TestSoakDigestIgnoresWorkerCount re-runs the same plan with a
// different worker count: the digest is aggregated in request-index
// order, so client concurrency must not leak into it.
func TestSoakDigestIgnoresWorkerCount(t *testing.T) {
	scenarios := buildKinds(t, 1, KindClean, KindChosenVictim)
	digests := make([]string, 0, 2)
	for _, workers := range []int{1, 16} {
		h, _ := newTestHarness(t, scenarios)
		tr, err := RunLoad(context.Background(), LoadConfig{
			BaseURL:   h.URL(),
			Scenarios: scenarios,
			Requests:  400,
			Workers:   workers,
			Seed:      7,
			Chaos:     soakChaos,
			FaultFrac: 0.08,
		})
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, tr.Digest())
	}
	if digests[0] != digests[1] {
		t.Errorf("digest depends on worker count: %s vs %s", digests[0], digests[1])
	}
}

// TestSoakRPSPacing sanity-checks the rate limiter: a paced run cannot
// finish faster than its schedule allows.
func TestSoakRPSPacing(t *testing.T) {
	if testing.Short() {
		t.Skip("pacing timing in short mode")
	}
	scenarios := buildKinds(t, 1, KindClean)
	h, _ := newTestHarness(t, scenarios)
	pre := scrape(t, h.URL())
	tr, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:   h.URL(),
		Scenarios: scenarios,
		Requests:  100,
		Workers:   8,
		RPS:       500,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 100 requests at 500 rps: the last is scheduled at ~198 ms.
	if tr.Elapsed.Milliseconds() < 150 {
		t.Errorf("paced run finished in %v; pacing is not applied", tr.Elapsed)
	}
	e := tr.Expected()
	if msgs := Reconcile(e.Wants(), pre, scrape(t, h.URL())); len(msgs) != 0 || e.Mismatches != 0 {
		t.Errorf("paced run does not reconcile (%d verdict mismatches): %v", e.Mismatches, msgs)
	}
}

// TestLoadConfigValidation exercises the config error paths.
func TestLoadConfigValidation(t *testing.T) {
	scenarios := buildKinds(t, 1, KindClean)
	bad := []LoadConfig{
		{Scenarios: scenarios, Requests: 10},                                                   // no BaseURL
		{BaseURL: "http://x", Scenarios: scenarios},                                            // no requests
		{BaseURL: "http://x", Requests: 10},                                                    // no scenarios
		{BaseURL: "http://x", Scenarios: scenarios, Requests: chaosSeedBase},                   // seed-space overflow
		{BaseURL: "http://x", Scenarios: scenarios, Requests: 10, FaultFrac: 1.5},              // bad fraction
		{BaseURL: "http://x", Scenarios: scenarios, Requests: 10, Chaos: ChaosConfig{Drop: 2}}, // bad chaos
	}
	for i, cfg := range bad {
		if _, err := RunLoad(context.Background(), cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestHarnessDefaultsServeConfig pins that the harness really runs the
// production server wiring (registry shared between server and harness
// accessors).
func TestHarnessDefaultsServeConfig(t *testing.T) {
	h := NewHarness(serve.Config{RequestTimeout: -1})
	defer h.Close()
	if h.Server.Registry().Len() != 0 {
		t.Fatal("fresh harness registry not empty")
	}
	c := NewClient(h.URL(), nil)
	if status, hr, err := c.Healthz(context.Background()); err != nil || status != 200 || hr.Status != "ok" {
		t.Fatalf("healthz: %d %+v %v", status, hr, err)
	}
}
