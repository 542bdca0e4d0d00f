package e2e

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/la"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Seed-space layout: three non-overlapping deterministic streams are
// derived from the base seed. Request i plans its operation with
// mc.RNG(seed, i) and its chaos faults with mc.Split(seed, chaosSeedBase
// + i); scenario si pregenerates traffic with mc.Split(seed,
// roundsSeedBase + si).
const (
	chaosSeedBase  = 1 << 20
	roundsSeedBase = 1 << 21
)

// Operation kinds the generator issues. The first six are well-formed
// traffic; the last three are deliberate client faults that must be
// answered with a 4xx and an exact ReqErrors increment.
const (
	OpEstimate      = "est1"     // single-round estimate
	OpEstimateBatch = "estB"     // batched estimate
	OpInspect       = "ins1"     // single-round inspect
	OpInspectBatch  = "insB"     // batched inspect
	OpHealthz       = "healthz"  // liveness poll
	OpMetrics       = "metrics"  // exposition scrape
	OpBadJSON       = "badjson"  // malformed JSON body → 400
	OpNotFound      = "notfound" // estimate against a ghost topology → 404
	OpShortY        = "shorty"   // inspect with a wrong-length y → 400
	opSkipped       = "skipped"  // deadline hit before this index ran
)

// Error classes a Record can carry; everything else is status-coded.
const (
	ErrClassDropped   = "dropped"   // chaos swallowed the request pre-send
	ErrClassReset     = "reset"     // response body died with ErrReset
	ErrClassShortBody = "shortbody" // body truncated: JSON failed to parse
	ErrClassTransport = "transport" // any other transport failure
)

// LoadConfig parameterizes a load-generation run against a live daemon.
// The scenarios' topologies must already be registered (see
// Client.Register); RunLoad only issues traffic.
type LoadConfig struct {
	// BaseURL targets the daemon (harness or remote).
	BaseURL string
	// Transport is the base HTTP transport chaos wraps; nil uses
	// http.DefaultTransport.
	Transport http.RoundTripper
	// Scenarios is the campaign mix; every request picks one uniformly.
	Scenarios []*Scenario
	// Requests is the total operation count.
	Requests int
	// Duration, when positive, deadlines the run: indices not started
	// before it expires are recorded as skipped (and the transcript
	// digest is then only comparable against runs skipped identically).
	Duration time.Duration
	// Workers is the client concurrency; 0 means 8.
	Workers int
	// RPS throttles issue rate (requests/second); 0 means unthrottled.
	RPS float64
	// Seed roots every deterministic stream of the run.
	Seed int64
	// Chaos configures fault injection; zero value disables it.
	Chaos ChaosConfig
	// RoundsPerScenario sizes each scenario's pregenerated traffic pool;
	// 0 means 32.
	RoundsPerScenario int
	// BatchMax caps rounds per batched request; 0 means 8 (min 2).
	BatchMax int
	// FaultFrac is the fraction of operations that are deliberate client
	// faults (badjson/notfound/shorty, equally likely).
	FaultFrac float64
}

func (cfg *LoadConfig) validate() error {
	if cfg.BaseURL == "" {
		return errors.New("e2e: load config needs a BaseURL")
	}
	if cfg.Requests <= 0 {
		return fmt.Errorf("e2e: %d requests", cfg.Requests)
	}
	if cfg.Requests >= chaosSeedBase {
		return fmt.Errorf("e2e: %d requests overflows the per-request seed space (max %d)",
			cfg.Requests, chaosSeedBase-1)
	}
	if len(cfg.Scenarios) == 0 {
		return errors.New("e2e: load config needs at least one scenario")
	}
	if cfg.FaultFrac < 0 || cfg.FaultFrac > 1 {
		return fmt.Errorf("e2e: fault fraction %g not in [0,1]", cfg.FaultFrac)
	}
	return cfg.Chaos.Validate()
}

func (cfg *LoadConfig) workers() int {
	if cfg.Workers <= 0 {
		return 8
	}
	return cfg.Workers
}

func (cfg *LoadConfig) roundsPerScenario() int {
	if cfg.RoundsPerScenario <= 0 {
		return 32
	}
	return cfg.RoundsPerScenario
}

func (cfg *LoadConfig) batchMax() int {
	if cfg.BatchMax < 2 {
		return 8
	}
	return cfg.BatchMax
}

// Record is one request's transcript entry. All fields other than
// timing-free observables are excluded by design: a Record is exactly
// the deterministic view of request i.
type Record struct {
	// Index is the request's position in the deterministic plan.
	Index int
	// Op is the operation kind.
	Op string
	// Scenario names the targeted campaign ("" for healthz/metrics/badjson).
	Scenario string
	// Rounds is how many measurement rounds the request carried.
	Rounds int
	// ExpAlarms is the client-side precomputed alarm count (inspect ops).
	ExpAlarms int
	// Status is the HTTP status (0 when the request never completed).
	Status int
	// ErrClass classifies the failure mode ("" = clean).
	ErrClass string
	// Alarms is the server-reported alarm count (-1 when no parsed body).
	Alarms int
	// Residuals are the server-reported residual norms (inspect ops with
	// a parsed body).
	Residuals []float64
	// VerdictMismatch flags a server verdict that disagreed with the
	// client-side precomputation — an invariant violation.
	VerdictMismatch bool
	// LatencyNS is the client-observed wall time of the request in
	// nanoseconds. It is timing, not plan, so Digest excludes it; it
	// feeds Transcript.Report's per-op latency quantiles.
	LatencyNS int64
}

// Transcript is the full outcome of a load run.
type Transcript struct {
	Seed     int64
	Chaos    string
	Records  []Record
	Elapsed  time.Duration
	Workers  int
	Requests int
}

// Digest hashes the transcript's deterministic content in request-index
// order. Residual norms are quantized to 1 µs so the digest survives
// last-ulp float differences across platforms.
func (t *Transcript) Digest() string {
	header := fmt.Sprintf("seed=%d chaos=%s n=%d", t.Seed, t.Chaos, len(t.Records))
	return digestLines(header, len(t.Records), func(w io.Writer, i int) {
		r := &t.Records[i]
		mm := 0
		if r.VerdictMismatch {
			mm = 1
		}
		fmt.Fprintf(w, "%d|%s|%s|%d|%d|%d|%s|%d|%d",
			r.Index, r.Op, r.Scenario, r.Rounds, r.ExpAlarms, r.Status, r.ErrClass, r.Alarms, mm)
		for _, v := range r.Residuals {
			fmt.Fprintf(w, "|%.3f", v)
		}
	})
}

// ExpectedMetrics is the client-side tally of what the server's
// counters must have recorded over the run. Chaos cannot blur it: a
// dropped request was never sent (no counters), while truncate/reset
// only mangle the response body after the server fully processed the
// request (all counters).
type ExpectedMetrics struct {
	ReqEstimate    int64
	ReqInspect     int64
	ReqHealthz     int64
	ReqMetrics     int64
	ReqErrors      int64
	EstimateRounds int64
	InspectRounds  int64
	Alarms         int64
	Sent           int64
	Dropped        int64
	Skipped        int64
	Mismatches     int64
}

// Expected folds the transcript into the counter deltas the server must
// have recorded.
func (t *Transcript) Expected() ExpectedMetrics {
	var e ExpectedMetrics
	for i := range t.Records {
		r := &t.Records[i]
		switch r.ErrClass {
		case ErrClassDropped:
			e.Dropped++
			continue
		case opSkipped:
			e.Skipped++
			continue
		}
		e.Sent++
		if r.VerdictMismatch {
			e.Mismatches++
		}
		switch r.Op {
		case OpEstimate, OpEstimateBatch:
			e.ReqEstimate++
			e.EstimateRounds += int64(r.Rounds)
		case OpInspect, OpInspectBatch:
			e.ReqInspect++
			e.InspectRounds += int64(r.Rounds)
			e.Alarms += int64(r.ExpAlarms)
		case OpHealthz:
			e.ReqHealthz++
		case OpMetrics:
			e.ReqMetrics++
		case OpBadJSON, OpNotFound:
			e.ReqEstimate++
			e.ReqErrors++
		case OpShortY:
			e.ReqInspect++
			e.ReqErrors++
		}
	}
	return e
}

// Wants lists the counter deltas the run must leave on /metrics. All
// are exact, chaos or not. Verdict mismatches are client-side and not
// among them; check Mismatches alongside.
func (e ExpectedMetrics) Wants() []Want {
	return []Want{
		exactWant(`tomographyd_requests_total{route="estimate"}`, e.ReqEstimate),
		exactWant(`tomographyd_requests_total{route="inspect"}`, e.ReqInspect),
		exactWant(`tomographyd_requests_total{route="healthz"}`, e.ReqHealthz),
		exactWant(metricsSeries, e.ReqMetrics),
		exactWant("tomographyd_request_errors_total", e.ReqErrors),
		exactWant("tomographyd_estimate_rounds_total", e.EstimateRounds),
		exactWant("tomographyd_inspect_rounds_total", e.InspectRounds),
		exactWant("tomographyd_detector_alarms_total", e.Alarms),
	}
}

// Summary renders a human-readable run report.
func (t *Transcript) Summary() string {
	ops := make(map[string]int)
	errs := make(map[string]int)
	var alarms int64
	for i := range t.Records {
		r := &t.Records[i]
		ops[r.Op]++
		if r.ErrClass != "" {
			errs[r.ErrClass]++
		}
		if r.Alarms > 0 {
			alarms += int64(r.Alarms)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "requests %d  workers %d  elapsed %v  seed %d  chaos %s\n",
		t.Requests, t.Workers, t.Elapsed.Round(time.Millisecond), t.Seed, t.Chaos)
	for _, k := range sortedKeys(ops) {
		fmt.Fprintf(&b, "  op %-8s %6d\n", k, ops[k])
	}
	for _, k := range sortedKeys(errs) {
		fmt.Fprintf(&b, "  err %-9s %5d\n", k, errs[k])
	}
	e := t.Expected()
	fmt.Fprintf(&b, "  sent %d dropped %d skipped %d\n", e.Sent, e.Dropped, e.Skipped)
	fmt.Fprintf(&b, "  estimate rounds %d  inspect rounds %d  alarms expected %d observed %d\n",
		e.EstimateRounds, e.InspectRounds, e.Alarms, alarms)
	return b.String()
}

// Report renders per-op client-side latency quantiles (p50/p95/p99)
// over the sent requests of the transcript. The quantiles come from
// obs.Histogram — the same bucketing and interpolation code behind the
// server's /metrics histograms — so client and server latency reports
// are directly comparable. Skipped and dropped requests carry no
// latency and are excluded.
func (t *Transcript) Report() string {
	hists := make(map[string]*obs.Histogram)
	for i := range t.Records {
		r := &t.Records[i]
		if r.Op == opSkipped || r.ErrClass == ErrClassDropped {
			continue
		}
		h := hists[r.Op]
		if h == nil {
			h = obs.NewHistogram(nil)
			hists[r.Op] = h
		}
		h.Observe(float64(r.LatencyNS) / 1e9)
	}
	ops := make([]string, 0, len(hists))
	for op := range hists {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	var b strings.Builder
	fmt.Fprintf(&b, "client latency (s), %d requests:\n", t.Requests)
	fmt.Fprintf(&b, "  %-8s %8s %10s %10s %10s\n", "op", "count", "p50", "p95", "p99")
	for _, op := range ops {
		h := hists[op]
		fmt.Fprintf(&b, "  %-8s %8d %10.6f %10.6f %10.6f\n",
			op, h.Count(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
	}
	return b.String()
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// gen is the per-run state shared by workers.
type gen struct {
	cfg    LoadConfig
	client *Client
	rounds [][]Round // per scenario, pregenerated traffic pool
}

// RunLoad executes the deterministic plan against the target daemon and
// returns the transcript. Request i's operation, payload, and chaos
// faults are pure functions of (cfg.Seed, i); with Duration unset, a
// fixed (seed, Requests, scenario set, chaos) tuple therefore yields an
// identical Digest on every run.
func RunLoad(ctx context.Context, cfg LoadConfig) (*Transcript, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	base := cfg.Transport
	if cfg.Chaos.Enabled() {
		ch, err := NewChaos(cfg.Chaos, base)
		if err != nil {
			return nil, err
		}
		base = ch
	}
	httpc := http.DefaultClient
	if base != nil {
		httpc = &http.Client{Transport: base}
	}
	g := &gen{cfg: cfg, client: NewClient(cfg.BaseURL, httpc)}
	g.rounds = make([][]Round, len(cfg.Scenarios))
	for si, sc := range cfg.Scenarios {
		rs, err := sc.GenRounds(mc.Split(cfg.Seed, roundsSeedBase+si), cfg.roundsPerScenario())
		if err != nil {
			return nil, err
		}
		g.rounds[si] = rs
	}

	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}
	records := make([]Record, cfg.Requests)
	var next atomic.Int64
	var interval time.Duration
	if cfg.RPS > 0 {
		interval = time.Duration(float64(time.Second) / cfg.RPS)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= cfg.Requests {
					return
				}
				if interval > 0 {
					due := start.Add(time.Duration(i) * interval)
					if d := time.Until(due); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
						}
					}
				}
				if ctx.Err() != nil {
					records[i] = Record{Index: i, Op: opSkipped, ErrClass: opSkipped, Alarms: -1}
					continue
				}
				records[i] = g.execute(ctx, i)
			}
		}()
	}
	wg.Wait()
	return &Transcript{
		Seed:     cfg.Seed,
		Chaos:    cfg.Chaos.String(),
		Records:  records,
		Elapsed:  time.Since(start),
		Workers:  cfg.workers(),
		Requests: cfg.Requests,
	}, nil
}

// planOp draws request i's operation kind. Each index has a private RNG,
// so conditional draws cannot skew other requests' plans.
func (g *gen) planOp(rng *rand.Rand) string {
	if g.cfg.FaultFrac > 0 && rng.Float64() < g.cfg.FaultFrac {
		return []string{OpBadJSON, OpNotFound, OpShortY}[rng.Intn(3)]
	}
	u := rng.Float64()
	switch {
	case u < 0.30:
		return OpEstimate
	case u < 0.48:
		return OpEstimateBatch
	case u < 0.78:
		return OpInspect
	case u < 0.94:
		return OpInspectBatch
	case u < 0.97:
		return OpHealthz
	default:
		return OpMetrics
	}
}

// pickRounds draws a contiguous (wrapping) batch of k pregenerated
// rounds from scenario si's pool.
func (g *gen) pickRounds(rng *rand.Rand, si, k int) []Round {
	pool := g.rounds[si]
	start := rng.Intn(len(pool))
	out := make([]Round, k)
	for j := 0; j < k; j++ {
		out[j] = pool[(start+j)%len(pool)]
	}
	return out
}

func (g *gen) execute(ctx context.Context, i int) (rec Record) {
	rng := mc.RNG(g.cfg.Seed, i)
	op := g.planOp(rng)
	ctx = WithRequestSeed(ctx, mc.Split(g.cfg.Seed, chaosSeedBase+i))
	// The request ID rides the X-Request-Id header (Client.do), so one
	// generator index correlates with one daemon log line and trace.
	ctx = obs.WithRequestID(ctx, fmt.Sprintf("load-%06d", i))
	rec = Record{Index: i, Op: op, Alarms: -1}
	start := time.Now()
	defer func() { rec.LatencyNS = time.Since(start).Nanoseconds() }()

	switch op {
	case OpEstimate, OpEstimateBatch:
		si := rng.Intn(len(g.cfg.Scenarios))
		k := 1
		if op == OpEstimateBatch {
			k = 2 + rng.Intn(g.cfg.batchMax()-1)
		}
		rounds := g.pickRounds(rng, si, k)
		rec.Scenario = g.cfg.Scenarios[si].Name
		rec.Rounds = k
		status, resp, err := g.client.Estimate(ctx, rec.Scenario, ys(rounds))
		rec.Status = status
		rec.ErrClass = classify(err)
		if resp != nil && len(resp.Results) != k {
			rec.VerdictMismatch = true
		}
	case OpInspect, OpInspectBatch:
		si := rng.Intn(len(g.cfg.Scenarios))
		k := 1
		if op == OpInspectBatch {
			k = 2 + rng.Intn(g.cfg.batchMax()-1)
		}
		rounds := g.pickRounds(rng, si, k)
		rec.Scenario = g.cfg.Scenarios[si].Name
		rec.Rounds = k
		for _, r := range rounds {
			if r.Detected {
				rec.ExpAlarms++
			}
		}
		status, resp, err := g.client.Inspect(ctx, rec.Scenario, ys(rounds), 0)
		rec.Status = status
		rec.ErrClass = classify(err)
		if resp != nil {
			rec.Alarms = resp.Alarms
			rec.Residuals = make([]float64, len(resp.Reports))
			for j, rep := range resp.Reports {
				rec.Residuals[j] = rep.ResidualNorm
			}
			rec.VerdictMismatch = !inspectAgrees(resp, rounds)
		}
	case OpHealthz:
		status, _, err := g.client.Healthz(ctx)
		rec.Status = status
		rec.ErrClass = statusOnlyClass(status, err)
	case OpMetrics:
		// Digest keeps the status only; the body is uptime-dependent.
		status, _, err := g.client.do(ctx, http.MethodGet, "/metrics", nil)
		rec.Status = status
		rec.ErrClass = statusOnlyClass(status, err)
	case OpBadJSON:
		status, _, err := g.client.PostRaw(ctx, "/v1/estimate", []byte(`{"topology": "fig1`))
		rec.Status = status
		rec.ErrClass = classify(err)
	case OpNotFound:
		status, _, err := g.client.Estimate(ctx, "no-such-topology", []la.Vector{{1, 2, 3}})
		rec.Status = status
		rec.ErrClass = classify(err)
	case OpShortY:
		si := rng.Intn(len(g.cfg.Scenarios))
		rec.Scenario = g.cfg.Scenarios[si].Name
		short := make(la.Vector, g.cfg.Scenarios[si].Sys.NumPaths()-1)
		status, _, err := g.client.Inspect(ctx, rec.Scenario, []la.Vector{short}, 0)
		rec.Status = status
		rec.ErrClass = classify(err)
	}
	return rec
}

// inspectAgrees checks the server's verdicts against the client-side
// precomputation: same alarm pattern, residual norms equal to within
// float-noise. Any disagreement is an invariant violation, not noise —
// both sides run identical code on bit-identical measurements (JSON
// float64 round-trips losslessly).
func inspectAgrees(resp *serve.InspectResponse, rounds []Round) bool {
	if len(resp.Reports) != len(rounds) {
		return false
	}
	for j, rep := range resp.Reports {
		if rep.Detected != rounds[j].Detected {
			return false
		}
		if diff := rep.ResidualNorm - rounds[j].ResidualNorm; diff > 1e-6 || diff < -1e-6 {
			return false
		}
	}
	return true
}

func ys(rounds []Round) []la.Vector {
	out := make([]la.Vector, len(rounds))
	for i, r := range rounds {
		out[i] = r.Y
	}
	return out
}

// statusOnlyClass classifies errors for the status-only ops (healthz,
// metrics), whose bodies vary with server state — uptime, and in a
// fleet, which shard answered and what it holds. Whether a chaos byte
// budget bites such a body is a function of state, not of the plan, so
// once the status line has arrived the op's deterministic observable is
// complete and body-level faults are folded out. Faults that prevented
// a status (drop, pre-status transport failure) keep their class.
func statusOnlyClass(status int, err error) string {
	class := classify(err)
	if status != 0 && (class == ErrClassReset || class == ErrClassShortBody) {
		return ""
	}
	return class
}

// classify canonicalizes a request error for the transcript: chaos
// sentinels keep their identity, JSON decode failures on a truncated
// body become "shortbody", anything else is "transport".
func classify(err error) string {
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrDropped):
		return ErrClassDropped
	case errors.Is(err, ErrReset):
		return ErrClassReset
	case errors.As(err, &syn), errors.As(err, &typ), errors.Is(err, io.ErrUnexpectedEOF):
		return ErrClassShortBody
	default:
		return ErrClassTransport
	}
}
