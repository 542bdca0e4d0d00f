package e2e

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/la"
	"repro/internal/serve"
)

// newTestHarness boots a deterministic harness (no request deadline, so
// no status ever depends on scheduling) and registers the given
// scenarios through the wire format with a plain client.
func newTestHarness(t *testing.T, scenarios []*Scenario) (*Harness, *Client) {
	t.Helper()
	h := NewHarness(serve.Config{RequestTimeout: -1})
	t.Cleanup(h.Close)
	c := NewClient(h.URL(), nil)
	for _, sc := range scenarios {
		tr, err := c.Register(context.Background(), sc.Name, sc.Sys, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tr == nil {
			t.Fatalf("register %s: unexpected conflict on a fresh server", sc.Name)
		}
		if tr.Alpha != detect.DefaultAlpha {
			t.Fatalf("register %s: alpha %g, want default %g", sc.Name, tr.Alpha, detect.DefaultAlpha)
		}
	}
	return h, c
}

// scrape snapshots each daemon's /metrics, in the per-node shape
// Reconcile takes (a single daemon is a slice of one).
func scrape(t *testing.T, urls ...string) []map[string]float64 {
	t.Helper()
	m, err := Scrape(context.Background(), urls...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func buildKinds(t *testing.T, seed int64, kinds ...ScenarioKind) []*Scenario {
	t.Helper()
	out, err := BuildScenarios(kinds, seed)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSmokeTheorem3OverHTTP is the paper's central detectability claim
// driven through the live HTTP stack: the consistent perfect-cut attack
// (Theorem 1's construction on link 1) stays under the α = 200 detector
// on every round, while the plain chosen-victim attack on link 10 —
// whose path M3–D–M2 carries no attacker, an imperfect cut — trips it on
// every round, and clean traffic never false-alarms.
func TestSmokeTheorem3OverHTTP(t *testing.T) {
	scenarios := buildKinds(t, 1, KindClean, KindStealthy, KindChosenVictim)
	h, c := newTestHarness(t, scenarios)

	// All three scenarios share the Fig. 1 routing matrix, so the solver
	// cache must factor exactly once.
	if hits, misses := h.Server.Metrics().CacheHits.Load(), h.Server.Metrics().CacheMisses.Load(); hits != 2 || misses != 1 {
		t.Errorf("solver cache hits/misses = %d/%d, want 2/1", hits, misses)
	}

	const rounds = 24
	wantAlarms := map[ScenarioKind]int{
		KindClean:        0,
		KindStealthy:     0,
		KindChosenVictim: rounds,
	}
	for _, sc := range scenarios {
		rs, err := sc.GenRounds(99, rounds)
		if err != nil {
			t.Fatal(err)
		}
		status, resp, err := c.Inspect(context.Background(), sc.Name, ysOf(rs), 0)
		if err != nil || status != http.StatusOK {
			t.Fatalf("%s inspect: status %d err %v", sc.Name, status, err)
		}
		if resp.Alarms != wantAlarms[sc.Kind] {
			t.Errorf("%s: %d alarms over %d rounds, want %d",
				sc.Name, resp.Alarms, rounds, wantAlarms[sc.Kind])
		}
		for j, rep := range resp.Reports {
			if rep.Detected != rs[j].Detected {
				t.Errorf("%s round %d: server verdict %v, client %v",
					sc.Name, j, rep.Detected, rs[j].Detected)
			}
			if sc.Kind == KindChosenVictim && rep.ResidualNorm <= detect.DefaultAlpha {
				t.Errorf("%s round %d: residual %.1f not above α", sc.Name, j, rep.ResidualNorm)
			}
			if sc.PerfectCut() && rep.ResidualNorm > detect.DefaultAlpha {
				t.Errorf("stealthy round %d: residual %.1f above α", j, rep.ResidualNorm)
			}
		}
	}
	// The stealthy attack is not a no-op: it does real damage while
	// staying invisible.
	for _, sc := range scenarios {
		if sc.Kind == KindStealthy && sc.Damage <= 0 {
			t.Errorf("stealthy attack solved with zero damage")
		}
	}
}

// TestSmokeChaosLoadReconciles runs a short fault-injected load burst
// and requires the server's counters to match the client-side
// expectation exactly: drops were never sent, cut bodies were fully
// processed, and every deliberate fault op cost exactly one ReqErrors.
func TestSmokeChaosLoadReconciles(t *testing.T) {
	scenarios := buildKinds(t, 1, KindClean, KindChosenVictim)
	h, _ := newTestHarness(t, scenarios)

	pre := scrape(t, h.URL())
	tr, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:   h.URL(),
		Scenarios: scenarios,
		Requests:  600,
		Workers:   8,
		Seed:      42,
		Chaos:     ChaosConfig{Drop: 0.05, Truncate: 0.05, Reset: 0.02},
		FaultFrac: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := tr.Expected()
	if msgs := Reconcile(e.Wants(), pre, scrape(t, h.URL())); len(msgs) != 0 || e.Mismatches != 0 {
		t.Fatalf("metrics do not reconcile (%d verdict mismatches):\n%s\n%s", e.Mismatches, msgs, tr.Summary())
	}
	if e.Dropped == 0 {
		t.Error("chaos drop never fired in 600 requests")
	}
	if e.Skipped != 0 {
		t.Errorf("%d requests skipped without a deadline", e.Skipped)
	}
	classes := make(map[string]int)
	for i := range tr.Records {
		classes[tr.Records[i].ErrClass]++
		if tr.Records[i].VerdictMismatch {
			t.Errorf("request %d: server verdicts diverged from client precomputation", i)
		}
	}
	if classes[ErrClassTransport] != 0 {
		t.Errorf("%d unclassified transport errors", classes[ErrClassTransport])
	}
	if classes[ErrClassShortBody]+classes[ErrClassReset] == 0 {
		t.Error("body-cutting chaos never surfaced in 600 requests")
	}
}

// TestSmokeEvictionChurn races live estimate traffic against an
// evict/re-register loop on the same topology. Requests may land on a
// 404 window — that is the contract — but nothing may 5xx, wedge, or
// corrupt the registry.
func TestSmokeEvictionChurn(t *testing.T) {
	scenarios := buildKinds(t, 1, KindClean)
	_, c := newTestHarness(t, scenarios)
	sc := scenarios[0]
	rs, err := sc.GenRounds(5, 4)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if status, err := c.Evict(context.Background(), sc.Name); err != nil || (status != http.StatusOK && status != http.StatusNotFound) {
				t.Errorf("evict: status %d err %v", status, err)
				return
			}
			if _, err := c.Register(context.Background(), sc.Name, sc.Sys, 0); err != nil {
				t.Errorf("re-register: %v", err)
				return
			}
		}
	}()

	got200, got404 := 0, 0
	for i := 0; i < 200; i++ {
		status, _, err := c.Estimate(context.Background(), sc.Name, ysOf(rs))
		if err != nil {
			t.Fatalf("estimate %d: %v", i, err)
		}
		switch status {
		case http.StatusOK:
			got200++
		case http.StatusNotFound:
			got404++
		default:
			t.Fatalf("estimate %d: status %d", i, status)
		}
	}
	close(stop)
	churn.Wait()
	if got200 == 0 {
		t.Error("no estimate ever succeeded under churn")
	}
	t.Logf("under churn: %d ok, %d not-found", got200, got404)

	if status, hr, err := c.Healthz(context.Background()); err != nil || status != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("healthz after churn: status %d resp %+v err %v", status, hr, err)
	}
}

// TestSmokeCancellationMidSolve cancels client contexts in the middle of
// large batched solves and requires graceful degradation: the server
// neither wedges nor corrupts later requests.
func TestSmokeCancellationMidSolve(t *testing.T) {
	scenarios := buildKinds(t, 1, KindClean)
	_, c := newTestHarness(t, scenarios)
	sc := scenarios[0]
	rs, err := sc.GenRounds(5, 16)
	if err != nil {
		t.Fatal(err)
	}
	// A big batch (many repeated rounds) gives cancellation a window.
	big := make([]la.Vector, 0, 2048)
	for len(big) < 2048 {
		big = append(big, ysOf(rs)...)
	}
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i)*300*time.Microsecond)
		_, _, err := c.Inspect(ctx, sc.Name, big, 0)
		cancel()
		// Either the cancellation won (transport error / 503) or the
		// solve was fast enough; both are acceptable. What is not
		// acceptable is damage visible to the next request.
		_ = err
		status, _, err := c.Estimate(context.Background(), sc.Name, ysOf(rs[:2]))
		if err != nil || status != http.StatusOK {
			t.Fatalf("estimate after cancellation %d: status %d err %v", i, status, err)
		}
	}
	if status, _, err := c.Healthz(context.Background()); err != nil || status != http.StatusOK {
		t.Fatalf("healthz after cancellations: status %d err %v", status, err)
	}
}

func ysOf(rounds []Round) []la.Vector { return ys(rounds) }
