package e2e

import (
	"strings"
	"testing"
)

// TestReconcile pins the one reconcile path every harness run goes
// through: per-node scrape deltas summed across one or three nodes,
// each node's post-scrape self-hit folded out, and exact and bounded
// wants each caught one count off in either direction.
func TestReconcile(t *testing.T) {
	const est = `tomographyd_requests_total{route="estimate"}`
	const rounds = "tomographyd_session_rounds_total"
	exact := []Want{exactWant(est, 4), exactWant(metricsSeries, 2)}
	bounded := []Want{exactWant(est, 4), {Series: rounds, Min: 5, Max: 8}}
	type deltas = []map[string]float64
	cases := []struct {
		name   string
		wants  []Want
		deltas deltas // per node, what the run added to each series
		bad    string // the series the one message must name; "" = reconciled
	}{
		{"1 node exact", exact, deltas{{est: 4, metricsSeries: 2}}, ""},
		{"1 node exact +1", exact, deltas{{est: 5, metricsSeries: 2}}, est},
		{"1 node exact -1", exact, deltas{{est: 4, metricsSeries: 1}}, metricsSeries},
		{"1 node bounded", bounded, deltas{{est: 4, rounds: 8}}, ""},
		{"1 node bounded +1", bounded, deltas{{est: 4, rounds: 9}}, rounds},
		{"1 node bounded -1", bounded, deltas{{est: 4, rounds: 4}}, rounds},
		{"3 nodes exact", exact, deltas{{est: 1}, {est: 2, metricsSeries: 2}, {est: 1}}, ""},
		{"3 nodes exact +1", exact, deltas{{est: 1}, {est: 2, metricsSeries: 3}, {est: 1}}, metricsSeries},
		{"3 nodes exact -1", exact, deltas{{est: 1}, {est: 1, metricsSeries: 2}, {est: 1}}, est},
		{"3 nodes bounded", bounded, deltas{{est: 4, rounds: 2}, {rounds: 3}, {}}, ""},
		{"3 nodes bounded +1", bounded, deltas{{est: 4, rounds: 2}, {rounds: 3}, {rounds: 4}}, rounds},
		{"3 nodes bounded -1", bounded, deltas{{est: 4, rounds: 2}, {rounds: 2}, {}}, rounds},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var pre, post []map[string]float64
			for i, d := range tc.deltas {
				before := map[string]float64{est: 100, rounds: 7, metricsSeries: float64(10 * i)}
				// The post scrape also counts itself.
				after := SumMetrics(before, d, map[string]float64{metricsSeries: 1})
				pre, post = append(pre, before), append(post, after)
			}
			msgs := Reconcile(tc.wants, pre, post)
			if tc.bad == "" {
				if len(msgs) != 0 {
					t.Fatalf("want reconciled, got %v", msgs)
				}
				return
			}
			if len(msgs) != 1 || !strings.Contains(msgs[0], tc.bad) {
				t.Fatalf("want one message naming %s, got %v", tc.bad, msgs)
			}
		})
	}
	if msgs := Reconcile(exact, make([]map[string]float64, 1), make([]map[string]float64, 3)); len(msgs) != 1 {
		t.Fatalf("pre/post node count mismatch: got %v", msgs)
	}
}
