package e2e

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden soak transcript digest")

// TestGoldenSoakTranscript pins the full end-to-end pipeline — scenario
// synthesis, attack LPs, packet simulation, chaos fault plan, server
// solves, verdicts — under a single digest. Any behavioural drift in any
// layer shows up as a digest change here. Regenerate with:
//
//	go test ./internal/e2e -run TestGoldenSoakTranscript -update
func TestGoldenSoakTranscript(t *testing.T) {
	scenarios := buildKinds(t, 1, KindClean, KindStealthy, KindChosenVictim)
	h, _ := newTestHarness(t, scenarios)
	pre := scrape(t, h.URL())
	tr, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:   h.URL(),
		Scenarios: scenarios,
		Requests:  300,
		Workers:   6,
		Seed:      7,
		Chaos:     soakChaos,
		FaultFrac: 0.08,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := tr.Expected()
	if msgs := Reconcile(e.Wants(), pre, scrape(t, h.URL())); len(msgs) != 0 || e.Mismatches != 0 {
		t.Fatalf("golden run does not reconcile (%d verdict mismatches): %v", e.Mismatches, msgs)
	}

	got := fmt.Sprintf(
		"digest %s\nsent %d dropped %d\nestimate-reqs %d inspect-reqs %d errors %d\nestimate-rounds %d inspect-rounds %d alarms %d\n",
		tr.Digest(), e.Sent, e.Dropped,
		e.ReqEstimate, e.ReqInspect, e.ReqErrors,
		e.EstimateRounds, e.InspectRounds, e.Alarms)

	path := filepath.Join("testdata", "soak.golden")
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
		t.Errorf("soak transcript drifted from golden.\ngot:\n%s\nwant:\n%s\nSummary:\n%s\nRun with -update if the change is intended.",
			got, want, tr.Summary())
	}
	if !strings.Contains(got, "alarms") {
		t.Fatal("golden content malformed")
	}
}
