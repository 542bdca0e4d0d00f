package e2e

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
)

// metricsSeries is the /metrics route's own request counter, which
// every scrape increments.
const metricsSeries = `tomographyd_requests_total{route="metrics"}`

// Want is one counter delta a run must leave on /metrics, keyed by
// exposition series name. Min == Max pins the delta exactly; a run
// under chaos may widen it to the closed range [Min, Max].
type Want struct {
	Series   string
	Min, Max int64
}

func exactWant(series string, n int64) Want { return Want{Series: series, Min: n, Max: n} }

// Reconcile checks wants against per-node /metrics scrapes taken before
// and after a run: pre[i] and post[i] are node i, and a single daemon
// is a slice of one. Requests may land on any node but each lands on
// exactly one, so the fleet-wide sums of the deltas are exact. The
// metrics route counts a scrape before rendering it, so every node's
// post scrape includes its own hit, while the pre scrape's hit shows in
// both readings and cancels; the len(post) post self-hits are folded
// out. It returns one message per missed want, naming the series
// (empty = reconciled).
func Reconcile(wants []Want, pre, post []map[string]float64) []string {
	if len(pre) != len(post) {
		return []string{fmt.Sprintf("e2e: %d pre scrapes vs %d post scrapes", len(pre), len(post))}
	}
	before, after := SumMetrics(pre...), SumMetrics(post...)
	after[metricsSeries] -= float64(len(post))
	var out []string
	for _, w := range wants {
		got := int64(after[w.Series] - before[w.Series])
		switch {
		case w.Min == w.Max && got != w.Min:
			out = append(out, fmt.Sprintf("Δ%s = %d, want %d", w.Series, got, w.Min))
		case got < w.Min || got > w.Max:
			out = append(out, fmt.Sprintf("Δ%s = %d outside [%d, %d]", w.Series, got, w.Min, w.Max))
		}
	}
	return out
}

// Scrape snapshots each daemon's /metrics directly, in order: the
// per-node slices Reconcile takes.
func Scrape(ctx context.Context, urls ...string) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(urls))
	for i, u := range urls {
		m, err := NewClient(u, nil).MetricsSnapshot(ctx)
		if err != nil {
			return nil, fmt.Errorf("e2e: scrape %s: %w", u, err)
		}
		out[i] = m
	}
	return out, nil
}

// SumMetrics adds per-node scrape maps into one fleet-wide map.
func SumMetrics(maps ...map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range maps {
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}

// digestLines hashes a transcript as newline-terminated text: the
// header line, then one line per record written by line(w, i). Every
// transcript keeps its own line format, so its digest — and the golden
// pinning it — depends only on that format.
func digestLines(header string, n int, line func(w io.Writer, i int)) string {
	h := sha256.New()
	fmt.Fprintln(h, header)
	for i := 0; i < n; i++ {
		line(h, i)
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}
