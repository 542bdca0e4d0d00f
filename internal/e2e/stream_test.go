package e2e

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/la"
	"repro/internal/serve"
)

// streamChaos is aggressive enough that drop, truncate, and reset all
// fire inside NDJSON round streams within a modest request count.
var streamChaos = ChaosConfig{Drop: 0.1, Truncate: 0.3, Reset: 0.15}

// newStreamHarness boots a harness sized for streaming runs: the
// request timeout is disabled (streams outlive any per-request deadline)
// and the pool is wide enough that client concurrency never trips the
// 429 shed path, which would make transcripts scheduling-dependent.
func newStreamHarness(t *testing.T, scenarios []*Scenario) *Harness {
	t.Helper()
	h := NewHarness(serve.Config{RequestTimeout: -1, Workers: 16})
	t.Cleanup(h.Close)
	c := NewClient(h.URL(), nil)
	for _, sc := range scenarios {
		if _, err := c.Register(context.Background(), sc.Name, sc.Sys, 0); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// TestStreamDigestWorkerInvariance runs the same streaming plan at
// three worker counts on three fresh daemons: every per-session verdict
// stream — batching, estimates, alarms, mid-stream path churn — must be
// identical, so the transcript digests must agree byte for byte and
// every run must reconcile exactly against its server's counters.
func TestStreamDigestWorkerInvariance(t *testing.T) {
	scenarios := buildKinds(t, 1, KindClean, KindStealthy, KindChosenVictim)
	var digests []string
	for _, workers := range []int{1, 4, 8} {
		h := newStreamHarness(t, scenarios)
		pre := scrape(t, h.URL())
		tr, err := RunStream(context.Background(), StreamConfig{
			BaseURL:          h.URL(),
			Scenarios:        scenarios,
			Sessions:         6,
			RoundsPerSession: 48,
			BatchMax:         16,
			Workers:          workers,
			Seed:             11,
			PathChurn:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		e := tr.Expected()
		if e.RoundsSent != 6*48 || e.VerdictsSeen != 6*48 {
			t.Fatalf("workers=%d: sent %d rounds, saw %d verdicts, want %d of each",
				workers, e.RoundsSent, e.VerdictsSeen, 6*48)
		}
		if e.Alarms == 0 {
			t.Fatalf("workers=%d: chosen-victim sessions never tripped the detector", workers)
		}
		if e.Mutations != 12 {
			t.Fatalf("workers=%d: churn did %d path mutations, want 6 adds + 6 removes",
				workers, e.Mutations)
		}
		if msgs := Reconcile(e.Wants(), pre, scrape(t, h.URL())); len(msgs) != 0 || e.Mismatches != 0 {
			t.Fatalf("workers=%d: transcript does not reconcile (%d verdict mismatches): %v", workers, e.Mismatches, msgs)
		}
		digests = append(digests, tr.Digest())
	}
	if digests[0] != digests[1] || digests[1] != digests[2] {
		t.Fatalf("digest depends on worker count:\n  w1 %s\n  w4 %s\n  w8 %s",
			digests[0], digests[1], digests[2])
	}
}

// TestStreamChaosMidStream injects drop/truncate/reset into the NDJSON
// round streams themselves. The assertions are the streaming analogue
// of the one-shot soak: the client transcript must be a pure function
// of the seed (two fresh daemons, same seed, same digest), every
// verdict that does arrive before a cut must agree with the client-side
// precomputation, and the server's counters must still reconcile — as
// exact figures where chaos cannot interfere and as bounds where a
// severed response leaves the server ahead of the client.
func TestStreamChaosMidStream(t *testing.T) {
	scenarios := buildKinds(t, 1, KindClean, KindStealthy, KindChosenVictim)
	run := func() (*StreamTranscript, []string) {
		h := newStreamHarness(t, scenarios)
		pre := scrape(t, h.URL())
		tr, err := RunStream(context.Background(), StreamConfig{
			BaseURL:          h.URL(),
			Scenarios:        scenarios,
			Sessions:         9,
			RoundsPerSession: 240,
			BatchMax:         20,
			Workers:          4,
			Seed:             23,
			Chaos:            streamChaos,
			PathChurn:        2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr, Reconcile(tr.Expected().Wants(), pre, scrape(t, h.URL()))
	}
	tr1, msgs := run()
	tr2, _ := run()
	if d1, d2 := tr1.Digest(), tr2.Digest(); d1 != d2 {
		t.Fatalf("chaotic stream transcript is not seed-deterministic:\n  %s\n  %s", d1, d2)
	}

	e := tr1.Expected()
	if e.Mismatches != 0 {
		t.Fatalf("%d verdicts disagreed with the client-side precomputation", e.Mismatches)
	}
	if len(msgs) != 0 {
		t.Fatalf("chaotic transcript does not reconcile: %v", msgs)
	}

	// The fault mix must actually have severed streams mid-flight: some
	// request ends in shortbody/reset after delivering at least one
	// verdict, and some rounds sent to the server never produced a
	// client-visible verdict.
	classes := make(map[string]int)
	cutAfterVerdicts := 0
	for i := range tr1.Sessions {
		r := &tr1.Sessions[i]
		for j, c := range r.ErrClasses {
			if c != "" {
				classes[c]++
			}
			if (c == ErrClassShortBody || c == ErrClassReset) && r.ReqVerdicts[j] > 0 {
				cutAfterVerdicts++
			}
		}
	}
	if classes[ErrClassDropped] == 0 {
		t.Error("drop chaos never fired on a stream request")
	}
	if classes[ErrClassShortBody]+classes[ErrClassReset] == 0 {
		t.Error("no stream was cut mid-body by truncate/reset chaos")
	}
	if cutAfterVerdicts == 0 {
		t.Error("every cut landed before the first verdict; mid-stream cuts not exercised")
	}
	if e.VerdictsSeen >= e.RoundsSent {
		t.Errorf("verdicts seen (%d) not behind rounds sent (%d) despite cut streams",
			e.VerdictsSeen, e.RoundsSent)
	}
	if e.VerdictsSeen == 0 {
		t.Fatal("chaos drowned every verdict; fault rates too high to test anything")
	}
}

// TestStreamBatchSpeedup is the PR's headline acceptance number: 1k
// rounds pushed through one session stream (batched estimates, one
// request) must beat 1k individual one-shot HTTP estimates by at least
// 10x wall-clock.
func TestStreamBatchSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	scenarios := buildKinds(t, 1, KindClean)
	sc := scenarios[0]
	h := newStreamHarness(t, scenarios)
	c := NewClient(h.URL(), nil)
	ctx := context.Background()

	const n = 1000
	rounds, err := sc.GenRounds(99, n)
	if err != nil {
		t.Fatal(err)
	}

	// One-shot path: n sequential POST /v1/estimate requests, one round
	// each — the pre-session way to score a round stream.
	oneStart := time.Now()
	for i := 0; i < n; i++ {
		status, _, err := c.Estimate(ctx, sc.Name, []la.Vector{rounds[i].Y})
		if err != nil || status != 200 {
			t.Fatalf("one-shot estimate %d: status %d err %v", i, status, err)
		}
	}
	oneShot := time.Since(oneStart)

	// Streamed path: one session, one NDJSON request, batches of 100 in
	// the packed wire form with slim verdicts — the configuration a
	// high-rate production feed would run.
	slim := false
	var lines []serve.StreamRound
	for at := 0; at < n; at += 100 {
		batch := make([][]float64, 0, 100)
		for _, r := range rounds[at : at+100] {
			batch = append(batch, r.Y)
		}
		packed, err := serve.PackRounds(batch)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, serve.StreamRound{Packed: packed, XHat: &slim})
	}
	streamed := time.Duration(1<<62 - 1)
	for rep := 0; rep < 3; rep++ {
		hnd, err := c.OpenSession(ctx, sc.Name, 0)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := c.StreamRounds(ctx, hnd.ID, lines)
		if d := time.Since(start); d < streamed {
			streamed = d
		}
		if err != nil || res.ErrClass != "" || len(res.Verdicts) != n {
			t.Fatalf("stream rep %d: err %v class %q verdicts %d", rep, err, res.ErrClass, len(res.Verdicts))
		}
		if _, _, err := c.CloseSession(ctx, hnd.ID); err != nil {
			t.Fatal(err)
		}
	}

	t.Logf("1k one-shot estimates: %v; 1k streamed rounds: %v (%.1fx)",
		oneShot, streamed, float64(oneShot)/float64(streamed))
	if streamed*10 > oneShot {
		t.Errorf("streamed 1k rounds in %v, one-shot in %v; want >= 10x speedup", streamed, oneShot)
	}
}

// TestGoldenStreamTranscript is the streaming counterpart of the soak
// golden: a 10k-round streaming soak (10 sessions x 1k rounds, with
// mid-stream path churn) whose verdict streams must be byte-identical
// across worker counts and match the committed digest. Regenerate with:
//
//	go test ./internal/e2e -run TestGoldenStreamTranscript -update
func TestGoldenStreamTranscript(t *testing.T) {
	scenarios := buildKinds(t, 1, KindClean, KindStealthy, KindChosenVictim)
	var last *StreamTranscript
	var digests []string
	for _, workers := range []int{1, 4, 8} {
		h := newStreamHarness(t, scenarios)
		pre := scrape(t, h.URL())
		tr, err := RunStream(context.Background(), StreamConfig{
			BaseURL:          h.URL(),
			Scenarios:        scenarios,
			Sessions:         10,
			RoundsPerSession: 1000,
			BatchMax:         100,
			Workers:          workers,
			Seed:             42,
			PathChurn:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		e := tr.Expected()
		if msgs := Reconcile(e.Wants(), pre, scrape(t, h.URL())); len(msgs) != 0 || e.Mismatches != 0 {
			t.Fatalf("workers=%d: golden stream run does not reconcile (%d verdict mismatches): %v", workers, e.Mismatches, msgs)
		}
		digests = append(digests, tr.Digest())
		last = tr
	}
	if digests[0] != digests[1] || digests[1] != digests[2] {
		t.Fatalf("10k-round verdict stream depends on worker count:\n  w1 %s\n  w4 %s\n  w8 %s",
			digests[0], digests[1], digests[2])
	}

	e := last.Expected()
	got := fmt.Sprintf(
		"digest %s\nsessions %d rounds %d verdicts %d alarms %d\nmutations %d mismatches %d\n",
		digests[0], len(last.Sessions), e.RoundsSent, e.VerdictsSeen, e.Alarms,
		e.Mutations, e.Mismatches)

	path := filepath.Join("testdata", "stream.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("update %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("stream transcript drifted from golden.\ngot:\n%s\nwant:\n%s\nSummary:\n%s\nRun with -update if the change is intended.",
			got, want, last.Summary())
	}
}
