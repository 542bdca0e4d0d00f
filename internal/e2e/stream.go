package e2e

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Seed-space layout for streaming runs, disjoint from the one-shot load
// generator's bases: session si pregenerates traffic with mc.Split(seed,
// streamRoundsSeedBase + si); its stream request b draws chaos faults
// from mc.Split(seed, streamChaosSeedBase + si·maxStreamRequests + b).
const (
	streamRoundsSeedBase = 1 << 22
	streamChaosSeedBase  = 1 << 23
	maxStreamRequests    = 4096
)

// ErrClassBusy marks a stream request the server shed with 429.
const ErrClassBusy = "busy"

// --- Streaming client ---------------------------------------------------

// SessionHandle is an open round session on the daemon.
type SessionHandle struct {
	ID     string
	Info   serve.SessionResponse
	client *Client
}

// OpenSession creates a round session bound to a registered topology
// (alpha 0 keeps the registered threshold).
func (c *Client) OpenSession(ctx context.Context, topology string, alpha float64) (*SessionHandle, error) {
	status, raw, err := c.do(ctx, http.MethodPost, "/v1/sessions",
		serve.SessionRequest{Topology: topology, Alpha: alpha})
	if err != nil {
		return nil, fmt.Errorf("e2e: open session on %s: %w", topology, err)
	}
	if status != http.StatusCreated {
		return nil, fmt.Errorf("e2e: open session on %s: status %d: %s", topology, status, raw)
	}
	var sr serve.SessionResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		return nil, fmt.Errorf("e2e: open session on %s: %w", topology, err)
	}
	return &SessionHandle{ID: sr.Session, Info: sr, client: c}, nil
}

// CloseSession deletes a session and returns its final accounting.
func (c *Client) CloseSession(ctx context.Context, id string) (int, *serve.SessionCloseResponse, error) {
	status, raw, err := c.do(ctx, http.MethodDelete, "/v1/sessions/"+id, nil)
	if err != nil || status != http.StatusOK {
		return status, nil, err
	}
	var cr serve.SessionCloseResponse
	if jerr := json.Unmarshal(raw, &cr); jerr != nil {
		return status, nil, jerr
	}
	return status, &cr, nil
}

// SessionInfo fetches a session's live status.
func (c *Client) SessionInfo(ctx context.Context, id string) (int, *serve.SessionStatusResponse, error) {
	status, raw, err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id, nil)
	if err != nil || status != http.StatusOK {
		return status, nil, err
	}
	var st serve.SessionStatusResponse
	if jerr := json.Unmarshal(raw, &st); jerr != nil {
		return status, nil, jerr
	}
	return status, &st, nil
}

// MutateSessionPaths posts one path add/remove against a session.
func (c *Client) MutateSessionPaths(ctx context.Context, id string, req serve.SessionPathsRequest) (int, *serve.SessionPathsResponse, error) {
	status, raw, err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/paths", req)
	if err != nil || status != http.StatusOK {
		return status, nil, err
	}
	var pr serve.SessionPathsResponse
	if jerr := json.Unmarshal(raw, &pr); jerr != nil {
		return status, nil, jerr
	}
	return status, &pr, nil
}

// StreamResult is the client-observed outcome of one NDJSON stream
// request: everything parsed before the response ended (or was cut).
type StreamResult struct {
	Status   int
	Verdicts []serve.StreamVerdict
	ErrLine  *serve.StreamError
	Summary  *serve.StreamSummary
	// ErrClass classifies how the stream ended abnormally ("" = clean):
	// dropped/reset/shortbody from chaos, busy for a 429 shed,
	// transport for anything else.
	ErrClass string
}

// StreamRounds posts the NDJSON lines as one rounds request and reads
// the verdict stream back, stopping cleanly at whatever point a chaotic
// transport cuts the response. Chaos faults never surface as errors
// here — they are classified into the result, because a cut stream is
// an outcome the transcript must record, not a test failure.
func (c *Client) StreamRounds(ctx context.Context, id string, lines []serve.StreamRound) (*StreamResult, error) {
	var raw []byte
	for i := range lines {
		b, ok := serve.AppendStreamRound(raw, &lines[i])
		if !ok {
			return nil, fmt.Errorf("e2e: stream line %d has non-finite values", i)
		}
		raw = b
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.Base+"/v1/sessions/"+id+"/rounds", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if rid := obs.RequestID(ctx); rid != "" {
		req.Header.Set("X-Request-Id", rid)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return &StreamResult{ErrClass: classify(err)}, nil
	}
	defer resp.Body.Close()
	res := &StreamResult{Status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests {
			res.ErrClass = ErrClassBusy
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		return res, nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		// Hot path: almost every line is a verdict in the server's exact
		// wire shape. Summary/error lines (and anything else) fall back
		// to the reflective probe below.
		var fv serve.StreamVerdict
		if serve.ParseStreamVerdict(raw, &fv) {
			res.Verdicts = append(res.Verdicts, fv)
			continue
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(raw, &probe); err != nil {
			// A torn final line: the body was cut mid-record.
			res.ErrClass = ErrClassShortBody
			return res, nil
		}
		switch {
		case probe["done"] != nil:
			var s serve.StreamSummary
			if err := json.Unmarshal(raw, &s); err == nil {
				res.Summary = &s
			}
		case probe["error"] != nil:
			var e serve.StreamError
			if err := json.Unmarshal(raw, &e); err == nil {
				res.ErrLine = &e
			}
		default:
			var v serve.StreamVerdict
			if err := json.Unmarshal(raw, &v); err == nil {
				res.Verdicts = append(res.Verdicts, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		res.ErrClass = classify(err)
	}
	return res, nil
}

// --- Deterministic stream runner ----------------------------------------

// StreamConfig parameterizes a streaming soak: N sessions, each fed a
// deterministic round sequence over one or more NDJSON stream requests.
type StreamConfig struct {
	// BaseURL targets the daemon.
	BaseURL string
	// Transport is the base transport chaos wraps for stream requests;
	// nil uses http.DefaultTransport. Session create/close/mutate always
	// go through a plain client — setup must not be disturbed by chaos.
	Transport http.RoundTripper
	// Scenarios is the campaign mix; session i binds scenario i mod N.
	// Their topologies must already be registered.
	Scenarios []*Scenario
	// Sessions is how many sessions to open (sequentially, so server
	// session IDs are deterministic).
	Sessions int
	// RoundsPerSession is the rounds streamed through each session.
	RoundsPerSession int
	// BatchMax caps rounds per NDJSON line; 0 means 64.
	BatchMax int
	// Workers is how many sessions stream concurrently; 0 means 4. The
	// server needs at least this many pool slots or streams shed with
	// 429 nondeterministically.
	Workers int
	// Seed roots every deterministic stream of the run.
	Seed int64
	// Chaos injects faults into stream requests only.
	Chaos ChaosConfig
	// PathChurn, when positive, splits each session's stream into
	// PathChurn+1 requests and performs an add+remove path round trip
	// between consecutive requests, exercising the refactor route
	// mid-stream.
	PathChurn int
}

func (cfg *StreamConfig) validate() error {
	if cfg.BaseURL == "" {
		return errors.New("e2e: stream config needs a BaseURL")
	}
	if cfg.Sessions <= 0 || cfg.RoundsPerSession <= 0 {
		return fmt.Errorf("e2e: %d sessions x %d rounds", cfg.Sessions, cfg.RoundsPerSession)
	}
	if len(cfg.Scenarios) == 0 {
		return errors.New("e2e: stream config needs at least one scenario")
	}
	if cfg.PathChurn < 0 || cfg.PathChurn+1 > maxStreamRequests {
		return fmt.Errorf("e2e: path churn %d out of range", cfg.PathChurn)
	}
	if cfg.Sessions >= 1<<12 {
		return fmt.Errorf("e2e: %d sessions overflows the chaos seed space", cfg.Sessions)
	}
	return cfg.Chaos.Validate()
}

func (cfg *StreamConfig) workers() int {
	if cfg.Workers <= 0 {
		return 4
	}
	return cfg.Workers
}

func (cfg *StreamConfig) batchMax() int {
	if cfg.BatchMax <= 0 {
		return 64
	}
	return cfg.BatchMax
}

// SessionRecord is one session's deterministic transcript: what was
// sent, what came back, and how each stream request ended.
type SessionRecord struct {
	// Index is the session's position in the plan (the digest key; the
	// server-minted ID is creation-order dependent and excluded).
	Index int
	// Scenario names the bound campaign.
	Scenario string
	// Statuses, ErrClasses, and ReqVerdicts record each stream request's
	// HTTP status (0 = never sent), error class ("" = clean), and
	// verdict lines received before the response ended, in request order.
	Statuses    []int
	ErrClasses  []string
	ReqVerdicts []int
	// RoundsSent counts rounds in requests that reached the server.
	RoundsSent int
	// ExpAlarms is the client-side precomputed alarm count over sent rounds.
	ExpAlarms int
	// Verdicts/Alarms count verdict lines actually received and how many
	// of them were detections.
	Verdicts int
	Alarms   int
	// Residuals and XNorms are the received per-round residual norms and
	// ‖x̂‖₁, in arrival order (quantized in the digest).
	Residuals []float64
	XNorms    []float64
	// Mutations records each successful path mutation's method.
	Mutations []string
	// SummaryRounds is the server's final summary count (-1 when the
	// stream ended without one, e.g. cut by chaos).
	SummaryRounds int
	// VerdictMismatch flags any server verdict that disagreed with the
	// client-side precomputation — an invariant violation.
	VerdictMismatch bool
	// CloseStatus is the DELETE status at teardown.
	CloseStatus int
}

// StreamTranscript is the full outcome of a streaming run.
type StreamTranscript struct {
	Seed     int64
	Chaos    string
	Workers  int
	Sessions []SessionRecord
	Elapsed  time.Duration
}

// Digest hashes the transcript's deterministic content in session-index
// order. Residuals and estimate norms are quantized to 1e-3 so the
// digest survives last-ulp float drift between the server's sparse
// factor and the client's dense precomputation.
func (t *StreamTranscript) Digest() string {
	header := fmt.Sprintf("stream seed=%d chaos=%s sessions=%d", t.Seed, t.Chaos, len(t.Sessions))
	return digestLines(header, len(t.Sessions), func(w io.Writer, i int) {
		r := &t.Sessions[i]
		mm := 0
		if r.VerdictMismatch {
			mm = 1
		}
		fmt.Fprintf(w, "%d|%s|%v|%v|%v|%d|%d|%d|%d|%v|%d|%d|%d",
			r.Index, r.Scenario, r.Statuses, r.ErrClasses, r.ReqVerdicts,
			r.RoundsSent, r.ExpAlarms, r.Verdicts, r.Alarms,
			r.Mutations, r.SummaryRounds, mm, r.CloseStatus)
		for j := range r.Residuals {
			fmt.Fprintf(w, "|%.3f/%.3f", r.Residuals[j], r.XNorms[j])
		}
	})
}

// StreamExpected is the client-side tally of a streaming transcript's
// server counters. Without chaos every figure is exact. With chaos,
// response cuts leave the server free to process rounds the client
// never saw, so the round and alarm counters become bounds: the server
// must have processed at least every verdict a client received and at
// most every round that was sent.
type StreamExpected struct {
	Exact            bool
	ReqSessions      int64
	ReqRounds        int64
	ReqSessionDelete int64
	SessionsOpened   int64
	SessionsClosed   int64
	RoundsSent       int64
	VerdictsSeen     int64
	Alarms           int64
	AlarmsSeen       int64
	Mutations        int64
	Mismatches       int64
}

// Expected folds the transcript into counter expectations.
func (t *StreamTranscript) Expected() StreamExpected {
	e := StreamExpected{Exact: t.Chaos == "off"}
	for i := range t.Sessions {
		r := &t.Sessions[i]
		e.ReqSessions++
		e.SessionsOpened++
		if r.CloseStatus != 0 {
			e.ReqSessionDelete++
		}
		if r.CloseStatus == http.StatusOK {
			e.SessionsClosed++
		}
		for _, st := range r.Statuses {
			if st != 0 {
				e.ReqRounds++
			}
		}
		e.RoundsSent += int64(r.RoundsSent)
		e.VerdictsSeen += int64(r.Verdicts)
		e.Alarms += int64(r.ExpAlarms)
		e.AlarmsSeen += int64(r.Alarms)
		for _, m := range r.Mutations {
			if m == "refactor" {
				e.Mutations++
			}
		}
		if r.VerdictMismatch {
			e.Mismatches++
		}
	}
	return e
}

// Wants lists the counter deltas the run must leave on /metrics: all
// exact without chaos, the session round and alarm counts bounded with
// it. Verdict mismatches are client-side and not among them; check
// Mismatches alongside.
func (e StreamExpected) Wants() []Want {
	rounds := Want{Series: "tomographyd_session_rounds_total", Min: e.VerdictsSeen, Max: e.RoundsSent}
	alarms := Want{Series: "tomographyd_session_alarms_total", Min: e.AlarmsSeen, Max: e.Alarms}
	if e.Exact {
		rounds.Min, alarms.Min = rounds.Max, alarms.Max
	}
	return []Want{
		exactWant(`tomographyd_requests_total{route="sessions"}`, e.ReqSessions),
		exactWant(`tomographyd_requests_total{route="rounds"}`, e.ReqRounds),
		exactWant(`tomographyd_requests_total{route="session_delete"}`, e.ReqSessionDelete),
		exactWant("tomographyd_sessions_opened_total", e.SessionsOpened),
		exactWant("tomographyd_sessions_closed_total", e.SessionsClosed),
		exactWant(`tomographyd_path_mutations_total{method="refactor"}`, e.Mutations),
		rounds,
		alarms,
	}
}

// Summary renders a human-readable run report.
func (t *StreamTranscript) Summary() string {
	e := t.Expected()
	errs := make(map[string]int)
	for i := range t.Sessions {
		for _, c := range t.Sessions[i].ErrClasses {
			if c != "" {
				errs[c]++
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sessions %d  workers %d  elapsed %v  seed %d  chaos %s\n",
		len(t.Sessions), t.Workers, t.Elapsed.Round(time.Millisecond), t.Seed, t.Chaos)
	fmt.Fprintf(&b, "  rounds sent %d  verdicts %d  alarms expected %d\n",
		e.RoundsSent, e.VerdictsSeen, e.Alarms)
	fmt.Fprintf(&b, "  mutations %d  mismatches %d\n", e.Mutations, e.Mismatches)
	for _, k := range sortedKeys(errs) {
		fmt.Fprintf(&b, "  err %-9s %5d\n", k, errs[k])
	}
	return b.String()
}

// sessionPlan is the precomputed deterministic work for one session.
type sessionPlan struct {
	index    int
	scenario *Scenario
	id       string
	rounds   []Round
	// segments partitions the NDJSON lines into stream requests; segBase
	// holds each segment's first round's global index.
	segments [][]serve.StreamRound
	segBase  []int
	// churnWalk is the node-name walk added+removed between segments.
	churnWalk []string
}

// RunStream opens cfg.Sessions sessions and streams each one's
// deterministic round sequence, concurrently across sessions but
// sequentially within one, then closes them all. Every per-session
// decision — traffic, batching, chaos faults, churn points — is a pure
// function of (seed, session index), and the transcript aggregates in
// session-index order, so a fixed-seed run yields an identical Digest
// for any worker count.
func RunStream(ctx context.Context, cfg StreamConfig) (*StreamTranscript, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	setup := NewClient(cfg.BaseURL, nil)
	base := cfg.Transport
	if cfg.Chaos.Enabled() {
		ch, err := NewChaos(cfg.Chaos, base)
		if err != nil {
			return nil, err
		}
		base = ch
	}
	streamc := setup
	if base != nil {
		streamc = NewClient(cfg.BaseURL, &http.Client{Transport: base})
	}

	// Sequential setup: pregenerate traffic and open every session in
	// index order, so server-side session IDs don't depend on scheduling.
	plans := make([]*sessionPlan, cfg.Sessions)
	for i := 0; i < cfg.Sessions; i++ {
		sc := cfg.Scenarios[i%len(cfg.Scenarios)]
		rounds, err := sc.GenRounds(mc.Split(cfg.Seed, streamRoundsSeedBase+i), cfg.RoundsPerSession)
		if err != nil {
			return nil, err
		}
		h, err := setup.OpenSession(ctx, sc.Name, 0)
		if err != nil {
			return nil, err
		}
		p := &sessionPlan{index: i, scenario: sc, id: h.ID, rounds: rounds}
		if cfg.PathChurn > 0 {
			doc, err := serve.DocFromSystem(sc.Name, sc.Sys, 0)
			if err != nil {
				return nil, err
			}
			p.churnWalk = doc.Paths[i%len(doc.Paths)]
		}
		p.plan(cfg.batchMax(), cfg.PathChurn)
		plans[i] = p
	}

	records := make([]SessionRecord, cfg.Sessions)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= cfg.Sessions {
					return
				}
				records[i] = runSession(ctx, cfg, setup, streamc, plans[i])
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if cfg.Chaos.Enabled() {
		awaitStreamsDone(ctx, setup)
	}
	return &StreamTranscript{
		Seed:     cfg.Seed,
		Chaos:    cfg.Chaos.String(),
		Workers:  cfg.workers(),
		Sessions: records,
		Elapsed:  elapsed,
	}, nil
}

// awaitStreamsDone polls /metrics, for up to ten seconds, until every
// rounds request the daemon accepted has returned. A stream whose
// response chaos cut runs on server-side until a write fails, and only
// then adds its rounds to the session counters.
func awaitStreamsDone(ctx context.Context, c *Client) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for ctx.Err() == nil {
		m, err := c.MetricsSnapshot(ctx)
		if err != nil || m[`tomographyd_requests_total{route="rounds"}`] == m[`tomographyd_stage_latency_seconds_count{stage="http.rounds"}`] {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// plan chunks the session's rounds into NDJSON lines of at most
// batchMax and partitions the lines into churn+1 stream requests.
func (p *sessionPlan) plan(batchMax, churn int) {
	var lines []serve.StreamRound
	lineBase := []int{}
	for at := 0; at < len(p.rounds); at += batchMax {
		end := min(at+batchMax, len(p.rounds))
		batch := make([][]float64, 0, end-at)
		for _, r := range p.rounds[at:end] {
			batch = append(batch, r.Y)
		}
		lines = append(lines, serve.StreamRound{Rounds: batch})
		lineBase = append(lineBase, at)
	}
	nseg := churn + 1
	if nseg > len(lines) {
		nseg = len(lines)
	}
	per := (len(lines) + nseg - 1) / nseg
	for at := 0; at < len(lines); at += per {
		end := min(at+per, len(lines))
		p.segments = append(p.segments, lines[at:end])
		p.segBase = append(p.segBase, lineBase[at])
	}
}

func runSession(ctx context.Context, cfg StreamConfig, setup, streamc *Client, p *sessionPlan) SessionRecord {
	rec := SessionRecord{Index: p.index, Scenario: p.scenario.Name, SummaryRounds: -1}
	for si, seg := range p.segments {
		if si > 0 && p.churnWalk != nil {
			// Churn point: append a duplicate path and remove it again,
			// so the round shape is unchanged but the solver has been
			// through an add+remove refactor round trip.
			for _, req := range []serve.SessionPathsRequest{
				{Add: p.churnWalk},
				{Remove: intPtr(p.scenario.Sys.NumPaths())},
			} {
				status, pr, err := setup.MutateSessionPaths(ctx, p.id, req)
				if err != nil || status != http.StatusOK {
					// Mutations run on the plain client, so a failure is a
					// real server-side invariant break, not chaos.
					rec.Mutations = append(rec.Mutations, "error")
					rec.VerdictMismatch = true
					continue
				}
				rec.Mutations = append(rec.Mutations, pr.Method)
			}
		}
		segRounds := 0
		for _, line := range seg {
			segRounds += len(line.Rounds)
		}
		sctx := WithRequestSeed(ctx, mc.Split(cfg.Seed, streamChaosSeedBase+p.index*maxStreamRequests+si))
		sctx = obs.WithRequestID(sctx, fmt.Sprintf("stream-%04d-%02d", p.index, si))
		res, err := streamc.StreamRounds(sctx, p.id, seg)
		if err != nil {
			rec.Statuses = append(rec.Statuses, 0)
			rec.ErrClasses = append(rec.ErrClasses, ErrClassTransport)
			rec.ReqVerdicts = append(rec.ReqVerdicts, 0)
			continue
		}
		rec.Statuses = append(rec.Statuses, res.Status)
		rec.ErrClasses = append(rec.ErrClasses, res.ErrClass)
		rec.ReqVerdicts = append(rec.ReqVerdicts, len(res.Verdicts))
		if res.ErrClass == ErrClassDropped {
			continue
		}
		if res.Status != http.StatusOK {
			continue
		}
		rec.RoundsSent += segRounds
		for _, r := range p.rounds[p.segBase[si] : p.segBase[si]+segRounds] {
			if r.Detected {
				rec.ExpAlarms++
			}
		}
		for _, v := range res.Verdicts {
			rec.Verdicts++
			if v.Detected {
				rec.Alarms++
			}
			rec.Residuals = append(rec.Residuals, v.ResidualNorm)
			rec.XNorms = append(rec.XNorms, norm1(v.XHat))
			gi := p.segBase[si] + v.Round
			if gi >= len(p.rounds) {
				rec.VerdictMismatch = true
				continue
			}
			want := p.rounds[gi]
			if v.Detected != want.Detected {
				rec.VerdictMismatch = true
			}
			if diff := v.ResidualNorm - want.ResidualNorm; diff > 1e-6 || diff < -1e-6 {
				rec.VerdictMismatch = true
			}
		}
		if res.ErrLine != nil {
			rec.VerdictMismatch = true
		}
		if res.Summary != nil {
			rec.SummaryRounds = res.Summary.Rounds
			if res.Summary.Rounds != segRounds {
				rec.VerdictMismatch = true
			}
		}
	}
	status, _, _ := setup.CloseSession(ctx, p.id)
	rec.CloseStatus = status
	return rec
}

func intPtr(v int) *int { return &v }

func norm1(v []float64) float64 {
	var s float64
	for _, x := range v {
		if x < 0 {
			s -= x
		} else {
			s += x
		}
	}
	return s
}
