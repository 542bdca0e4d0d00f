package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/e2e"
	"repro/internal/la"
)

// bench is one workload: a system under test that can be booted afresh,
// driven by closed-loop clients, scraped for its own counters, and
// replayed layer by layer.
type bench interface {
	// setup boots a fresh system under test (closing any previous one),
	// registers its topologies, opens sessions and warms every cache.
	setup(ctx context.Context) error
	// runClient drives client c in a closed loop until the deadline, or
	// for maxOps ops when maxOps > 0 (the warm-up).
	runClient(ctx context.Context, c int, until time.Time, maxOps int, rec *recorder)
	// scrape snapshots the server-side counters the tally reconciles.
	scrape(ctx context.Context) (map[string]float64, error)
	// selfHits is what the post-phase scrape adds to the counters by
	// itself (one /metrics hit per scraped node).
	selfHits() map[string]float64
	// replay times each layer's public functions on the inputs the
	// timed phase used (traced runs only).
	replay(ctx context.Context, lr *layerRec, p *phaseResult) error
	// planDigest hashes the seeded inputs and the first ops of every
	// client's plan.
	planDigest() string
	// meta describes the workload's store wiring for the run record.
	meta() (fsync, dataDir string)
	close()
}

// clients is the closed-loop client count of every workload: two
// monitoring controllers, each waiting for its verdict before acting.
const clients = 2

// recorder is one client's tally. Nothing in it is shared between
// goroutines; phase merges the recorders after the clients return.
type recorder struct {
	tr     *tracer
	client int
	seq    int
	ops    int64
	failed int64
	shed   int64
	// win tallies successful ops by the phase window they completed in.
	start   time.Time
	win     []window
	codecNs int64
	// counters are the expected server-side counter deltas.
	counters map[string]float64
	errs     []string
	kept     []recorded
}

// window is what completed within one windowLen slice of a phase.
type window struct {
	ops, rounds     int64
	readNs, writeNs []int64
}

// windowLen slices a timed phase; see phase.
const windowLen = time.Second

func newRecorder(c int, tr *tracer, start time.Time, windows int) *recorder {
	return &recorder{client: c, tr: tr, start: start, win: make([]window, windows), counters: make(map[string]float64)}
}

// now is the window the current instant falls in (the last one for ops
// that complete after the deadline).
func (r *recorder) now() *window {
	return &r.win[min(int(time.Since(r.start)/windowLen), len(r.win)-1)]
}

// addRounds books rounds whose answers were checked correct.
func (r *recorder) addRounds(n int) { r.now().rounds += int64(n) }

// opID names the next op; the ID rides X-Request-Id so server-side
// spans join the client's span tree.
func (r *recorder) opID() string {
	r.seq++
	return fmt.Sprintf("c%d-%d", r.client, r.seq)
}

// done books one op: its latency goes to the read or write sample set
// only when it succeeded, because a failed op has no meaningful latency.
func (r *recorder) done(write bool, d time.Duration, err error) {
	r.ops++
	if err != nil {
		r.failed++
		if len(r.errs) < 8 {
			r.errs = append(r.errs, err.Error())
		}
		return
	}
	w := r.now()
	w.ops++
	if write {
		w.writeNs = append(w.writeNs, int64(d))
	} else {
		w.readNs = append(w.readNs, int64(d))
	}
}

// count bumps an expected server-side counter delta.
func (r *recorder) count(key string, n float64) { r.counters[key] += n }

// codec times a client-side encode or decode.
func (r *recorder) codec(op string, start time.Time) {
	if r.tr == nil {
		return
	}
	end := time.Now()
	r.codecNs += int64(end.Sub(start))
	r.tr.record(op, "client.codec", start, end)
}

// statusError is a non-2xx answer; 429 and 503 are sheds.
type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("status %d: %s", e.status, strings.TrimSpace(e.body))
}

func (e *statusError) shed() bool {
	return e.status == http.StatusTooManyRequests || e.status == http.StatusServiceUnavailable
}

// httpClient is one closed-loop client's connection: one keep-alive
// connection per client, so two clients hold two connections.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// call issues one request and reads the whole response into buf. A
// non-2xx status comes back as *statusError.
func call(ctx context.Context, hc *http.Client, method, url, op string, body []byte, buf *bytes.Buffer) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if op != "" {
		req.Header.Set("X-Request-Id", op)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &statusError{status: resp.StatusCode, body: buf.String()}
	}
	return nil
}

// fail books a failed op, counting sheds separately.
func (r *recorder) fail(write bool, err error) {
	var se *statusError
	if errors.As(err, &se) && se.shed() {
		r.shed++
	}
	r.done(write, 0, err)
}

// --- Round pools -------------------------------------------------------

// pooled is one pre-computed measurement round: the y the servers
// receive and the answers the benchmark's own estimator and detector
// give on it.
type pooled struct {
	y        la.Vector
	xhat     la.Vector
	detected bool
	residual float64
}

// roundPool synthesizes n rounds of sc's traffic, manipulates the rounds
// marked in attacked, and pre-computes every expected answer with the
// benchmark's own tomo.System and detect.Detector. alpha 0 calibrates
// the threshold to twice the worst clean residual, so clean rounds never
// alarm whatever the topology's noise level. A manipulated round adds
// delay to seeded paths until its residual is at least twice alpha, so
// with margin set no verdict sits near the threshold.
func roundPool(sc *e2e.Scenario, seed int64, n int, alpha float64, attacked map[int]bool, margin bool) ([]pooled, float64, error) {
	rounds, err := sc.GenRounds(seed, n)
	if err != nil {
		return nil, 0, err
	}
	if alpha == 0 {
		for _, r := range rounds {
			alpha = math.Max(alpha, r.ResidualNorm)
		}
		alpha = math.Ceil(2 * alpha)
	}
	det, err := detect.New(sc.Sys, alpha)
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]pooled, n)
	for i, r := range rounds {
		y := r.Y
		if attacked[i] {
			y = append(la.Vector(nil), y...)
			for k := 0; k < 64; k++ {
				for j := 0; j < 8; j++ {
					y[rng.Intn(len(y))] += alpha / 4
				}
				rep, err := det.Inspect(y)
				if err != nil {
					return nil, 0, err
				}
				if rep.ResidualNorm >= 2*alpha {
					break
				}
			}
		}
		rep, err := det.Inspect(y)
		if err != nil {
			return nil, 0, err
		}
		if margin && (attacked[i] != rep.Detected || (!rep.Detected && rep.ResidualNorm > alpha/1.5)) {
			return nil, 0, fmt.Errorf("%s round %d: residual %.3f too close to alpha %.3f", sc.Name, i, rep.ResidualNorm, alpha)
		}
		out[i] = pooled{y: y, xhat: rep.XHat, detected: rep.Detected, residual: rep.ResidualNorm}
	}
	return out, alpha, nil
}

// attackedSet marks k of n pool slots, seeded.
func attackedSet(seed int64, n, k int) map[int]bool {
	rng := rand.New(rand.NewSource(seed ^ 0xa77ac4))
	out := make(map[int]bool, k)
	for _, i := range rng.Perm(n)[:k] {
		out[i] = true
	}
	return out
}

// --- Answer checks -----------------------------------------------------

// closeTo reports whether a server value matches the benchmark's own
// within rel (relative to max(1, |want|)). The dense route is bit-exact;
// the sparse route's warm-started batch solve differs from a cold solve
// only at the iteration tolerance.
func closeTo(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Max(1, math.Abs(want))
}

func checkVector(got []float64, want la.Vector, rel float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("estimate has %d links, want %d", len(got), len(want))
	}
	for i := range got {
		if !closeTo(got[i], want[i], rel) {
			return fmt.Errorf("estimate link %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

func checkVerdict(detected bool, residual float64, want pooled, rel float64) error {
	if detected != want.detected {
		return fmt.Errorf("verdict %v, want %v (residual %v vs %v)", detected, want.detected, residual, want.residual)
	}
	if !closeTo(residual, want.residual, rel) {
		return fmt.Errorf("residual %v, want %v", residual, want.residual)
	}
	return nil
}

// --- Phases ------------------------------------------------------------

// phaseResult is what one timed phase measured. The rates and latency
// samples come from the kept windows only; see phase.
type phaseResult struct {
	wall                time.Duration
	ops, failed, shed   int64
	opsRate, roundsRate float64
	readP50, writeP50   float64
	readNs, writeNs     []int64
	kept, windows       int
	// winOps and winP50 are every window's ops/s and read p50 in ms, in
	// time order, for the report.
	winOps, winP50      []float64
	codecNs             int64
	allocBytes          uint64
	heapInuse           uint64
	gcCPUFrac, gcCycles float64
	// stealFrac is the share of the machine's CPU time the hypervisor
	// stole during the phase: other tenants, not this program.
	stealFrac  float64
	mismatches []string
	errs       []string
	bodies     []recorded
	pre, post  map[string]float64
}

// runtimeSample reads the GC counters the phase reports.
func runtimeSample() (gcCPU, totalCPU, cycles float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return val(s[0].Value), val(s[1].Value), val(s[2].Value)
}

// phase scrapes the server counters, runs every client closed loop for
// d, scrapes again and reconciles the servers' counters with the
// clients' tally.
//
// The phase is sliced into windowLen windows, and the hypervisor's steal
// is sampled per window. This machine shares its host: while other
// tenants run, the virtual CPUs lose time as steal, and every rate and
// tail latency moves with them. The rates and latency percentiles
// therefore come from the three quarters of the windows with the least
// steal; correctness, allocation and heap figures use the whole phase.
func phase(ctx context.Context, b bench, d time.Duration, tr *tracer) (*phaseResult, error) {
	pre, err := b.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("pre-phase scrape: %w", err)
	}
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0, cyc0 := runtimeSample()
	ticks0, steal0 := cpuTicks()

	nw := max(int((d+windowLen/2)/windowLen), 1)
	recs := make([]*recorder, clients)
	start := time.Now()
	until := start.Add(d)
	stop := make(chan struct{})
	stealc := make(chan []float64, 1)
	go func() { stealc <- sampleSteal(nw, stop) }()
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = newRecorder(c, tr, start, nw)
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			b.runClient(ctx, rec.client, until, 0, rec)
		}(recs[c])
	}
	wg.Wait()
	close(stop)
	steal := <-stealc
	res := &phaseResult{wall: time.Since(start), windows: nw}

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	gc1, cpu1, cyc1 := runtimeSample()
	if ticks1, steal1 := cpuTicks(); ticks1 > ticks0 {
		res.stealFrac = (steal1 - steal0) / (ticks1 - ticks0)
	}
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.heapInuse = ms2.HeapInuse
	if cpu1 > cpu0 {
		res.gcCPUFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	res.gcCycles = cyc1 - cyc0

	want := b.selfHits()
	for _, r := range recs {
		res.ops += r.ops
		res.failed += r.failed
		res.shed += r.shed
		res.codecNs += r.codecNs
		res.errs = append(res.errs, r.errs...)
		res.bodies = append(res.bodies, r.kept...)
		for k, v := range r.counters {
			want[k] += v
		}
	}
	// Keep the three quarters of the windows with the least steal (the
	// earlier window on a tie); the last window runs to the phase's end.
	order := make([]int, nw)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return steal[order[i]] < steal[order[j]] })
	res.kept = max((3*nw+3)/4, 1)
	keep := make([]bool, nw)
	for _, i := range order[:res.kept] {
		keep[i] = true
	}
	// Each kept window gives its own rates and medians, and the phase
	// reports the median of those: a window that other tenants slowed
	// moves it less than it moves a pooled figure.
	var opsRates, roundsRates, readP50s, writeP50s []float64
	for i := 0; i < nw; i++ {
		length := windowLen
		if i == nw-1 {
			length = res.wall - time.Duration(nw-1)*windowLen
		}
		var ops, rounds int64
		var readNs, writeNs []int64
		for _, r := range recs {
			w := r.win[i]
			ops += w.ops
			rounds += w.rounds
			readNs = append(readNs, w.readNs...)
			writeNs = append(writeNs, w.writeNs...)
		}
		res.winOps = append(res.winOps, float64(ops)/length.Seconds())
		res.winP50 = append(res.winP50, percentile(readNs, 0.5))
		if !keep[i] {
			continue
		}
		res.readNs = append(res.readNs, readNs...)
		res.writeNs = append(res.writeNs, writeNs...)
		opsRates = append(opsRates, float64(ops)/length.Seconds())
		roundsRates = append(roundsRates, float64(rounds)/length.Seconds())
		if len(readNs) > 0 {
			readP50s = append(readP50s, percentile(readNs, 0.5))
		}
		if len(writeNs) > 0 {
			writeP50s = append(writeP50s, percentile(writeNs, 0.5))
		}
	}
	res.opsRate, res.roundsRate = median(opsRates), median(roundsRates)
	res.readP50, res.writeP50 = median(readP50s), median(writeP50s)
	post, err := b.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("post-phase scrape: %w", err)
	}
	res.mismatches = reconcile(want, pre, post)
	res.pre, res.post = pre, post
	return res, nil
}

// sampleSteal returns the hypervisor's steal share of each of the first
// nw windowLen windows, sampling /proc/stat at every window boundary
// until stop closes; a window still open at stop ends there.
func sampleSteal(nw int, stop <-chan struct{}) []float64 {
	out := make([]float64, nw)
	tick := time.NewTicker(windowLen)
	defer tick.Stop()
	total0, steal0 := cpuTicks()
	for i := 0; ; i++ {
		done := false
		select {
		case <-tick.C:
		case <-stop:
			done = true
		}
		total1, steal1 := cpuTicks()
		if total1 > total0 {
			out[min(i, nw-1)] = max(out[min(i, nw-1)], (steal1-steal0)/(total1-total0))
		}
		total0, steal0 = total1, steal1
		if done {
			return out
		}
	}
}

// reconcile compares every expected counter delta with the scraped one.
func reconcile(want, pre, post map[string]float64) []string {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		if got := post[k] - pre[k]; got != want[k] {
			out = append(out, fmt.Sprintf("%s: server delta %v, benchmark tally %v", k, got, want[k]))
		}
	}
	return out
}

// scrapeNode scrapes one server's /metrics.
func scrapeNode(ctx context.Context, url string) (map[string]float64, error) {
	return e2e.NewClient(url, nil).MetricsSnapshot(ctx)
}

// sumScrapes adds per-node scrapes into one fleet-wide map.
func sumScrapes(ctx context.Context, urls []string) (map[string]float64, error) {
	var maps []map[string]float64
	for _, u := range urls {
		m, err := scrapeNode(ctx, u)
		if err != nil {
			return nil, err
		}
		maps = append(maps, m)
	}
	return e2e.SumMetrics(maps...), nil
}

func routeKey(route string) string { return `tomographyd_requests_total{route="` + route + `"}` }

// warm runs every client for n ops outside any timed phase and fails on
// the first failed op.
func warm(ctx context.Context, b bench, n int) error {
	for c := 0; c < clients; c++ {
		rec := newRecorder(c, nil, time.Now(), 1)
		b.runClient(ctx, c, time.Now().Add(time.Hour), n, rec)
		if rec.failed > 0 {
			return fmt.Errorf("warm-up client %d: %s", c, strings.Join(rec.errs, "; "))
		}
	}
	return nil
}

// --- Plans -------------------------------------------------------------

// planRNG is client c's op-plan generator: a pure function of the seed.
func planRNG(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(c)*7919 + 17))
}

// hashRounds folds a pool into h.
func hashRounds(h hash.Hash, pool []pooled) {
	var b [8]byte
	for _, p := range pool {
		for _, v := range p.y {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
}

// vectors views pool rounds as la vectors.
func vectors(pool []pooled, idx []int) []la.Vector {
	out := make([]la.Vector, len(idx))
	for j, i := range idx {
		out[j] = pool[i].y
	}
	return out
}

// median is the middle of vs (the mean of the two middle values for an
// even count), or 0 when vs is empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile (nearest rank) of ns in ms.
func percentile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return float64(s[idx]) / 1e6
}
