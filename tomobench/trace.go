package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// span is one timed interval at a layer boundary. Spans of one op share
// the op ID that rides X-Request-Id; parent is the span that was open
// innermost for that op when this one began (-1 for a root).
type span struct {
	name       string
	op         string
	id, parent int32
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps every span in memory; write dumps them when the run ends.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	open    map[string][]int32
	samples map[string][]int64 // untied durations: store appends, tailer steps
	counts  map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[string][]int32), samples: make(map[string][]int64), counts: make(map[string]int64)}
}

// active is the tracer the wrappers report to; nil while untraced, so a
// wrapper then costs one atomic load.
var active atomic.Pointer[tracer]

func (t *tracer) begin(op, name string) int32 {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	parent := int32(-1)
	// A client op is always a root: a stream's server span opens before
	// the line ops it carries.
	if st := t.open[op]; len(st) > 0 && op != "" && name != "client.op" {
		parent = st[len(st)-1]
	}
	if op != "" {
		t.open[op] = append(t.open[op], id)
	}
	t.spans = append(t.spans, span{name: name, op: op, id: id, parent: parent, start: now})
	return id
}

func (t *tracer) end(id int32) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = now
	st := t.open[s.op]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == id {
			st = append(st[:i], st[i+1:]...)
			break
		}
	}
	if len(st) == 0 {
		delete(t.open, s.op)
	} else {
		t.open[s.op] = st
	}
}

// record adds a closed child span of op's innermost open span.
func (t *tracer) record(op, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if st := t.open[op]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.spans = append(t.spans, span{name: name, op: op, id: int32(len(t.spans)), parent: parent,
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))})
}

// sample records a duration not tied to an op.
func (t *tracer) sample(name string, d time.Duration) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], int64(d))
	t.mu.Unlock()
}

// add bumps a count not tied to an op.
func (t *tracer) add(name string, n int64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// write dumps the spans as gzipped TSV: name, op, id, parent, start, end.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "name\top\tid\tparent\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%s\t%s\t%d\t%d\t%d\t%d\n", s.name, s.op, s.id, s.parent, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// tracedHandler opens a span named name around h for the op named by
// the request's X-Request-Id.
func tracedHandler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := active.Load()
		if t == nil {
			h.ServeHTTP(w, r)
			return
		}
		id := t.begin(r.Header.Get("X-Request-Id"), name)
		defer t.end(id)
		h.ServeHTTP(w, r)
	})
}

// tracedStore is the store.Backend a primary's registry journals
// through: it times every append, fsync included.
type tracedStore struct{ st *store.Store }

func (s tracedStore) AppendRegister(doc store.TopologyDoc) error {
	return s.timed(func() error { return s.st.AppendRegister(doc) })
}

func (s tracedStore) AppendEvict(name string) error {
	return s.timed(func() error { return s.st.AppendEvict(name) })
}

func (s tracedStore) timed(fn func() error) error {
	t := active.Load()
	if t == nil {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	t.sample("store.append", time.Since(t0))
	return err
}

// --- Per-layer table ---------------------------------------------------

// layerRec accumulates the per-layer metrics and the stage table of one
// traced run.
type layerRec struct {
	vals  map[string]float64
	rows  []stageRow
	notes []string
}

// stageRow is one line of the stage table. share is NaN for work that
// is not on an op's blocking path (background tailing, replays).
type stageRow struct {
	name         string
	count        int
	p50ms, busyS float64
	share        float64
}

func newLayerRec() *layerRec { return &layerRec{vals: make(map[string]float64)} }

// add records a stage row from duration samples.
func (lr *layerRec) add(name string, ns []int64, share float64) {
	var busy int64
	for _, d := range ns {
		busy += d
	}
	lr.rows = append(lr.rows, stageRow{name: name, count: len(ns), p50ms: percentile(ns, 0.5), busyS: float64(busy) / 1e9, share: share})
}

// replay times fn n times (at least once, at most until budget is spent)
// and records the samples as a replay row.
func (lr *layerRec) replay(name string, n int, budget time.Duration, fn func(i int) error) ([]int64, error) {
	var ns []int64
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, fmt.Errorf("replay %s: %w", name, err)
		}
		ns = append(ns, int64(time.Since(t0)))
		if time.Since(start) > budget {
			break
		}
	}
	lr.add(name, ns, math.NaN())
	return ns, nil
}

// meanNs is the mean of ns in nanoseconds.
func meanNs(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	var s int64
	for _, d := range ns {
		s += d
	}
	return float64(s) / float64(len(ns))
}

// analyze turns the spans of a traced phase into per-layer self times
// and splits op wall time between the layers. Each instant of a client
// op's window goes to the innermost layer span of that op active then
// (the latest started), or to "unattributed" when none is: loopback
// transport, scheduling and the HTTP client.
func (lr *layerRec) analyze(t *tracer) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	samples := make(map[string][]int64, len(t.samples))
	for k, v := range t.samples {
		samples[k] = append([]int64(nil), v...)
	}
	lr.vals["cluster.records_shipped"] = float64(t.counts["cluster.records_shipped"])
	t.mu.Unlock()

	children := make(map[int32][]int32)
	byOp := make(map[string][]int32)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s.id)
		}
		if s.op != "" {
			byOp[s.op] = append(byOp[s.op], s.id)
		}
	}
	self := make(map[string][]int64)
	busy := make(map[string]int64)
	var wall int64
	for _, s := range spans {
		switch {
		case s.op == "":
			// Replication pulls, timed as cluster.tail_step.
		case s.name == "client.op":
			wall += s.end - s.start
			attribute(s, spans, byOp[s.op], busy)
		default:
			var iv [][2]int64
			for _, c := range children[s.id] {
				iv = append(iv, [2]int64{spans[c].start, spans[c].end})
			}
			self[s.name] = append(self[s.name], s.end-s.start-covered(iv, s.start, s.end))
		}
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	share := func(d int64) float64 { return float64(d) / float64(max(wall, 1)) }
	for _, n := range names {
		lr.rows = append(lr.rows, stageRow{name: n + " (self)", count: len(self[n]), p50ms: percentile(self[n], 0.5),
			busyS: float64(busy[n]) / 1e9, share: share(busy[n])})
	}
	lr.rows = append(lr.rows, stageRow{name: "unattributed", count: -1, busyS: float64(busy["unattributed"]) / 1e9,
		share: share(busy["unattributed"])})
	lr.vals["unattributed_frac"] = share(busy["unattributed"])
	lr.vals["cluster.route_self_ms"] = percentile(self["cluster.route"], 0.5)
	lr.vals["serve.handle_ms"] = percentile(self["serve.handle"], 0.5)
	for _, n := range []string{"store.append", "cluster.tail_step"} {
		if len(samples[n]) > 0 {
			lr.add(n, samples[n], math.NaN())
		}
	}
	lr.vals["store.append_p50_ms"] = percentile(samples["store.append"], 0.5)
	lr.vals["store.append_p99_ms"] = percentile(samples["store.append"], 0.99)
	lr.vals["cluster.tail_step_ms"] = percentile(samples["cluster.tail_step"], 0.5)
}

// attribute adds each instant of the client op window w to the innermost
// active layer span of its op in busy.
func attribute(w span, spans []span, ofOp []int32, busy map[string]int64) {
	var in []span
	cuts := []int64{w.start, w.end}
	for _, o := range ofOp {
		x := spans[o]
		if x.name == "client.op" || x.end <= w.start || x.start >= w.end {
			continue
		}
		in = append(in, x)
		cuts = append(cuts, max(x.start, w.start), min(x.end, w.end))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo {
			continue
		}
		best := -1
		for j, x := range in {
			if x.start <= lo && x.end >= hi && (best < 0 || x.start > in[best].start || (x.start == in[best].start && x.id > in[best].id)) {
				best = j
			}
		}
		name := "unattributed"
		if best >= 0 {
			name = in[best].name
		}
		busy[name] += hi - lo
	}
}

// covered is the length of the union of intervals iv clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// print renders the stage table.
func (lr *layerRec) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "stage table (%s):\n", workload)
	fmt.Fprintf(w, "  %-34s %9s %11s %11s %8s\n", "stage", "count", "p50_ms", "busy_s", "share")
	for _, r := range lr.rows {
		count, p50, share := fmt.Sprint(r.count), fmt.Sprintf("%.4f", r.p50ms), "-"
		if r.count < 0 {
			count, p50 = "-", "-"
		}
		if !math.IsNaN(r.share) {
			share = fmt.Sprintf("%.1f%%", 100*r.share)
		}
		fmt.Fprintf(w, "  %-34s %9s %11s %11.4f %8s\n", r.name, count, p50, r.busyS, share)
	}
	for _, n := range lr.notes {
		fmt.Fprintln(w, "  note:", n)
	}
}
