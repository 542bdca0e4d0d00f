package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/e2e"
	"repro/internal/serve"
)

// fig1 is the inspect-fig1 workload: one-shot estimate and inspect calls
// of 1-8 rounds over the paper's Fig. 1 topology under all five campaign
// kinds, plus /healthz and /metrics, against one in-memory tomographyd.
// A small share of ops re-registers a per-client topology name (evict
// then register, a solver-cache hit), so the one-shot daemon's write
// path is timed too.
type fig1 struct {
	cfg   config
	scens []*e2e.Scenario
	// pool holds poolSize rounds per scenario, scenario k at
	// [k*poolSize, (k+1)*poolSize).
	pool     []pooled
	poolSize int
	// writeBody is each client's registration body, of a topology with
	// routing-matrix digest digest.
	writeBody [clients][]byte
	digest    string

	srv   *serve.Server
	ts    *httptest.Server
	hc    [clients]*http.Client
	plans [clients]*rand.Rand
	buf   [clients]*bytes.Buffer
}

// fig1Op is one planned op.
type fig1Op struct {
	kind  string // estimate, inspect, healthz, metrics, write
	scen  int
	start int
	n     int
}

func newFig1(cfg config) (*fig1, error) {
	scens, err := e2e.BuildScenarios(e2e.AllKinds(), cfg.seed)
	if err != nil {
		return nil, err
	}
	b := &fig1{cfg: cfg, scens: scens, poolSize: 64, digest: scens[0].Sys.Digest()}
	for k, sc := range scens {
		p, _, err := roundPool(sc, cfg.seed+int64(k)*101, b.poolSize, sc.Det.Alpha(), nil, false)
		if err != nil {
			return nil, err
		}
		b.pool = append(b.pool, p...)
	}
	for c := range b.writeBody {
		wire, err := e2e.WireTopology(fmt.Sprintf("fig1-w%d", c), scens[0].Sys, 0)
		if err != nil {
			return nil, err
		}
		if b.writeBody[c], err = json.Marshal(wire); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// next draws the next op of a client's plan.
func (b *fig1) next(rng *rand.Rand) fig1Op {
	switch u := rng.Intn(100); {
	case u < 3:
		return fig1Op{kind: "healthz"}
	case u < 6:
		return fig1Op{kind: "metrics"}
	case u < 8:
		return fig1Op{kind: "write"}
	case u < 53:
		return fig1Op{kind: "estimate", scen: rng.Intn(len(b.scens)), start: rng.Intn(b.poolSize), n: 1 + rng.Intn(8)}
	default:
		return fig1Op{kind: "inspect", scen: rng.Intn(len(b.scens)), start: rng.Intn(b.poolSize), n: 1 + rng.Intn(8)}
	}
}

func (b *fig1) planDigest() string {
	h := sha256.New()
	hashRounds(h, b.pool)
	for c := 0; c < clients; c++ {
		rng := planRNG(b.cfg.seed, c)
		for i := 0; i < 1000; i++ {
			fmt.Fprintf(h, "%+v\n", b.next(rng))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (b *fig1) setup(ctx context.Context) error {
	b.close()
	b.srv = serve.New(serve.Config{})
	b.ts = httptest.NewServer(tracedHandler("serve.handle", b.srv.Handler()))
	setup := e2e.NewClient(b.ts.URL, nil)
	for _, sc := range b.scens {
		if _, err := setup.Register(ctx, sc.Name, sc.Sys, 0); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	for c := range b.hc {
		b.hc[c] = httpClient()
		b.plans[c] = planRNG(b.cfg.seed, c)
		b.buf[c] = new(bytes.Buffer)
		if err := call(ctx, http.DefaultClient, http.MethodPost, b.ts.URL+"/v1/topologies", "", b.writeBody[c], &buf); err != nil {
			return err
		}
	}
	return warm(ctx, b, 200)
}

func (b *fig1) runClient(ctx context.Context, c int, until time.Time, maxOps int, rec *recorder) {
	for i := 0; (maxOps == 0 || i < maxOps) && time.Now().Before(until); i++ {
		op := b.next(b.plans[c])
		switch op.kind {
		case "write":
			name, digest := fmt.Sprintf("fig1-w%d", c), b.digest
			if writeOp(ctx, b.hc[c], b.buf[c], http.MethodDelete, b.ts.URL+"/v1/topologies/"+name, nil, "evict", digest, rec) &&
				writeOp(ctx, b.hc[c], b.buf[c], http.MethodPost, b.ts.URL+"/v1/topologies", b.writeBody[c], "topologies", digest, rec) {
				rec.count("tomographyd_solver_cache_hits_total", 1)
			}
		case "healthz", "metrics":
			b.probe(ctx, c, rec, op.kind)
		default:
			idx := make([]int, op.n)
			for j := range idx {
				idx[j] = op.scen*b.poolSize + (op.start+j)%b.poolSize
			}
			oneShot(ctx, b.hc[c], b.buf[c], b.ts.URL, op.kind, b.scens[op.scen].Name, b.pool, idx, rec)
		}
	}
}

// probe runs one /healthz or /metrics op.
func (b *fig1) probe(ctx context.Context, c int, rec *recorder, kind string) {
	id := ""
	if rec.tr != nil {
		id = rec.opID()
		defer rec.tr.end(rec.tr.begin(id, "client.op"))
	}
	start := time.Now()
	err := call(ctx, b.hc[c], http.MethodGet, b.ts.URL+"/"+kind, id, nil, b.buf[c])
	if err != nil {
		rec.fail(false, err)
		return
	}
	t1 := time.Now()
	if kind == "healthz" {
		var hr serve.HealthResponse
		err = json.Unmarshal(b.buf[c].Bytes(), &hr)
		lat := time.Since(start)
		rec.codec(id, t1)
		if err == nil {
			err = b.checkHealth(hr)
		}
		rec.done(false, lat, err)
	} else {
		m, perr := e2e.ParsePrometheus(b.buf[c].String())
		lat := time.Since(start)
		rec.codec(id, t1)
		if perr == nil && m[routeKey("metrics")] < 1 {
			perr = fmt.Errorf("/metrics lacks its own request counter")
		}
		rec.done(false, lat, perr)
		err = perr
	}
	if err == nil {
		rec.count(routeKey(kind), 1)
	}
}

func (b *fig1) checkHealth(hr serve.HealthResponse) error {
	have := make(map[string]bool, len(hr.Topologies))
	for _, n := range hr.Topologies {
		have[n] = true
	}
	for _, sc := range b.scens {
		if !have[sc.Name] {
			return fmt.Errorf("healthz lacks topology %s", sc.Name)
		}
	}
	if hr.Status != "ok" {
		return fmt.Errorf("healthz status %q", hr.Status)
	}
	return nil
}

func (b *fig1) scrape(ctx context.Context) (map[string]float64, error) {
	return scrapeNode(ctx, b.ts.URL)
}

func (b *fig1) selfHits() map[string]float64 {
	return map[string]float64{
		routeKey("metrics"):                   1,
		"tomographyd_request_errors_total":    0,
		"tomographyd_requests_rejected_total": 0,
	}
}

func (b *fig1) replay(ctx context.Context, lr *layerRec, p *phaseResult) error {
	wire, err := e2e.WireTopology("fig1-replay", b.scens[0].Sys, 0)
	if err != nil {
		return err
	}
	return replayLayers(ctx, lr, &replayInput{
		name: "fig1", sys: b.scens[0].Sys, wire: wire, alpha: b.scens[0].Det.Alpha(),
		pool: b.pool, bodies: p.bodies, metrics: b.srv.Metrics(),
	})
}

func (b *fig1) meta() (string, string) { return "none (in-memory)", "" }

func (b *fig1) close() {
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
