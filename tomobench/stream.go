package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/e2e"
	"repro/internal/serve"
)

// stream is the stream-backbone3k workload: two NDJSON round sessions on
// a 3000-link x 3300-path backbone, which the dense budget sends to the
// sparse CGLS route. Each client keeps one line of 8 rounds in flight
// with slim verdicts; a seeded 1 in 8 rounds is manipulated so the alarm
// fires. A stream request carries linesPerRequest lines, and between two
// requests the client sends its session roundTrips path round trips (add
// a duplicate path, remove it), the session's write path.
type stream struct {
	cfg    config
	sc     *e2e.Scenario
	alpha  float64
	pool   []pooled
	walks  [][]string
	digest string

	srv      *serve.Server
	ts       *httptest.Server
	sessions [clients]string
	hc       [clients]*http.Client
	plans    [clients]*rand.Rand
	buf      [clients]*bytes.Buffer
}

const (
	roundsPerLine   = 8
	linesPerRequest = 2
	// roundTrips path round trips follow each request: with two lines
	// per request that is one write per line, enough samples for a
	// steady write_p99_ms.
	roundTrips = 2
	streamPool = 64
)

func newStream(cfg config) (*stream, error) {
	links := 3000
	if cfg.small {
		links = 300
	}
	// The topology is a fixed fixture; the seed varies the traffic.
	sc, err := e2e.BackboneScenario("backbone3k", links, 31)
	if err != nil {
		return nil, err
	}
	pool, alpha, err := roundPool(sc, cfg.seed, streamPool, 0, attackedSet(cfg.seed, streamPool, streamPool/roundsPerLine), true)
	if err != nil {
		return nil, err
	}
	wire, err := e2e.WireTopology(sc.Name, sc.Sys, alpha)
	if err != nil {
		return nil, err
	}
	return &stream{cfg: cfg, sc: sc, alpha: alpha, pool: pool, walks: wire.Paths, digest: sc.Sys.Digest()}, nil
}

// nextLine draws the pool rounds of a client's next line.
func nextLine(rng *rand.Rand, poolSize int) []int {
	idx := make([]int, roundsPerLine)
	for j := range idx {
		idx[j] = rng.Intn(poolSize)
	}
	return idx
}

func (b *stream) planDigest() string {
	h := sha256.New()
	hashRounds(h, b.pool)
	for c := 0; c < clients; c++ {
		rng := planRNG(b.cfg.seed, c)
		for r := 0; r < 100; r++ {
			for l := 0; l < linesPerRequest; l++ {
				fmt.Fprintln(h, nextLine(rng, len(b.pool)))
			}
			for k := 0; k < roundTrips; k++ {
				fmt.Fprintln(h, rng.Intn(len(b.walks)))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (b *stream) setup(ctx context.Context) error {
	b.close()
	b.srv = serve.New(serve.Config{})
	b.ts = httptest.NewServer(tracedHandler("serve.handle", b.srv.Handler()))
	setup := e2e.NewClient(b.ts.URL, nil)
	if _, err := setup.Register(ctx, b.sc.Name, b.sc.Sys, b.alpha); err != nil {
		return err
	}
	for c := range b.hc {
		s, err := setup.OpenSession(ctx, b.sc.Name, 0)
		if err != nil {
			return err
		}
		b.sessions[c] = s.ID
		b.hc[c] = httpClient()
		b.plans[c] = planRNG(b.cfg.seed, c)
		b.buf[c] = new(bytes.Buffer)
	}
	return warm(ctx, b, linesPerRequest)
}

func (b *stream) runClient(ctx context.Context, c int, until time.Time, maxOps int, rec *recorder) {
	lines := 0
	for (maxOps == 0 || lines < maxOps) && time.Now().Before(until) {
		n, err := b.request(ctx, c, until, rec)
		lines += n
		if err != nil {
			rec.fail(false, err)
			continue
		}
		for k := 0; k < roundTrips && time.Now().Before(until); k++ {
			walk := b.walks[b.plans[c].Intn(len(b.walks))]
			pathRoundTrip(ctx, b.hc[c], b.ts.URL, b.sessions[c], walk, b.sc.Sys.NumPaths(), b.digest, rec, b.buf[c])
		}
	}
}

// request runs one NDJSON stream request: up to linesPerRequest lines,
// each sent only after the previous line's verdicts arrived. It returns
// how many lines it sent; every line is an op.
func (b *stream) request(ctx context.Context, c int, until time.Time, rec *recorder) (int, error) {
	id := ""
	if rec.tr != nil {
		id = rec.opID()
	}
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.ts.URL+"/v1/sessions/"+b.sessions[c]+"/rounds", pr)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := b.hc[c].Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return 0, &statusError{status: resp.StatusCode, body: string(raw)}
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var line []byte
	sent, alarms, lines := 0, 0, 0
	for lines < linesPerRequest && time.Now().Before(until) {
		idx := nextLine(b.plans[c], len(b.pool))
		a, err := b.line(id, idx, sent, pw, br, &line, rec)
		lines++
		if err != nil {
			return lines, err
		}
		sent += len(idx)
		alarms += a
	}
	if err := pw.Close(); err != nil {
		return lines, err
	}
	raw, err := io.ReadAll(br)
	if err != nil {
		return lines, err
	}
	var sum serve.StreamSummary
	if err := json.Unmarshal(raw, &sum); err != nil {
		return lines, fmt.Errorf("stream summary %q: %w", raw, err)
	}
	if !sum.Done || sum.Rounds != sent || sum.Alarms != alarms {
		return lines, fmt.Errorf("stream summary %+v, sent %d rounds with %d alarms", sum, sent, alarms)
	}
	rec.count(routeKey("rounds"), 1)
	rec.count("tomographyd_session_rounds_total", float64(sent))
	rec.count("tomographyd_session_alarms_total", float64(alarms))
	return lines, nil
}

// line sends one NDJSON line of the pool rounds idx and reads its
// verdicts back, checking each; it returns the line's alarm count.
func (b *stream) line(id string, idx []int, sent int, pw io.Writer, br *bufio.Reader, buf *[]byte, rec *recorder) (int, error) {
	if rec.tr != nil {
		defer rec.tr.end(rec.tr.begin(id, "client.op"))
	}
	t0 := time.Now()
	ys := make([][]float64, len(idx))
	for j, i := range idx {
		ys[j] = b.pool[i].y
	}
	xhat := false
	line, ok := serve.AppendStreamRound((*buf)[:0], &serve.StreamRound{Rounds: ys, XHat: &xhat})
	*buf = line
	rec.codec(id, t0)
	if !ok {
		return 0, fmt.Errorf("line has non-finite rounds")
	}
	rec.keepBody("stream", line, idx)
	start := time.Now()
	if _, err := pw.Write(line); err != nil {
		return 0, err
	}
	var parse time.Duration
	alarms := 0
	for j := range idx {
		raw, err := br.ReadSlice('\n')
		if err != nil {
			return 0, fmt.Errorf("verdict %d: %w", sent+j, err)
		}
		t1 := time.Now()
		var v serve.StreamVerdict
		parsed := serve.ParseStreamVerdict(raw, &v)
		parse += time.Since(t1)
		if !parsed {
			return 0, fmt.Errorf("unexpected stream line %s", bytes.TrimSpace(raw))
		}
		if v.Round != sent+j {
			return 0, fmt.Errorf("verdict for round %d, want %d", v.Round, sent+j)
		}
		if err := checkVerdict(v.Detected, v.ResidualNorm, b.pool[idx[j]], 1e-6); err != nil {
			return 0, err
		}
		if v.Detected {
			alarms++
		}
	}
	lat := time.Since(start)
	if rec.tr != nil {
		end := time.Now()
		rec.tr.record(id, "client.codec", end.Add(-parse), end)
		rec.codecNs += int64(parse)
	}
	rec.addRounds(len(idx))
	rec.done(false, lat, nil)
	return alarms, nil
}

func (b *stream) scrape(ctx context.Context) (map[string]float64, error) {
	return scrapeNode(ctx, b.ts.URL)
}

func (b *stream) selfHits() map[string]float64 {
	return map[string]float64{
		routeKey("metrics"):                 1,
		"tomographyd_request_errors_total":  0,
		"tomographyd_requests_busy_total":   0,
		"tomographyd_sessions_reaped_total": 0,
	}
}

func (b *stream) replay(ctx context.Context, lr *layerRec, p *phaseResult) error {
	// The server's own CGLS iteration count over the traced phase, to
	// cross-check the replayed one.
	its := p.post["tomographyd_solver_iterations_sum"] - p.pre["tomographyd_solver_iterations_sum"]
	solves := p.post["tomographyd_solver_iterations_count"] - p.pre["tomographyd_solver_iterations_count"]
	rounds := p.post["tomographyd_session_rounds_total"] - p.pre["tomographyd_session_rounds_total"]
	lr.notes = append(lr.notes, fmt.Sprintf("server CGLS: %.0f iterations over %.0f solves for %.0f rounds (%.2f per round)",
		its, solves, rounds, its/max(rounds, 1)))
	wire, err := e2e.WireTopology("replay", b.sc.Sys, b.alpha)
	if err != nil {
		return err
	}
	return replayLayers(ctx, lr, &replayInput{
		name: b.sc.Name, sys: b.sc.Sys, wire: wire, alpha: b.alpha,
		pool: b.pool, bodies: p.bodies, metrics: b.srv.Metrics(),
	})
}

func (b *stream) meta() (string, string) { return "none (in-memory)", "" }

func (b *stream) close() {
	if b.ts != nil {
		b.ts.Close()
		b.ts = nil
	}
	for _, hc := range b.hc {
		if hc != nil {
			hc.CloseIdleConnections()
		}
	}
}
