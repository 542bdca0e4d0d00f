package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"

	"repro/internal/forensics"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/tomo"
)

// Harness is a real tomographyd service core mounted on a loopback
// httptest server — the same handler, registry, worker pool, and metrics
// the production daemon runs, minus only the TCP listener flags. A
// persistent harness (NewPersistentHarness) additionally carries the
// durable store, exactly as the daemon wires it under -data-dir.
type Harness struct {
	Server *serve.Server
	HTTP   *httptest.Server
	Store  *store.Store // nil unless built by NewPersistentHarness
}

// NewHarness boots a server with cfg over loopback. Soak tests that
// need deterministic transcripts should disable the request timeout
// (RequestTimeout: -1): with no deadline the pool queues instead of
// shedding, so no request's status depends on scheduling.
func NewHarness(cfg serve.Config) *Harness {
	srv := serve.New(cfg)
	return &Harness{Server: srv, HTTP: httptest.NewServer(srv.Handler())}
}

// NewPersistentHarness boots a server whose registry journals to dir,
// recovering whatever a previous harness (or crash) left there first —
// the same open → restore → attach sequence cmd/tomographyd runs at
// boot, including the store_* instrument family on the harness metrics
// registry. Callers that simulate a crash simply drop the harness
// without calling Close; callers that simulate a graceful restart call
// Close and reopen on the same dir.
func NewPersistentHarness(ctx context.Context, cfg serve.Config, dir string, sopts store.Options) (*Harness, error) {
	srv := serve.New(cfg)
	if sopts.Metrics == nil {
		sopts.Metrics = store.NewMetrics(srv.Metrics().Registry(), func() float64 {
			return float64(store.DirSize(dir))
		})
	}
	st, err := store.Open(ctx, dir, sopts)
	if err != nil {
		return nil, fmt.Errorf("e2e: open store: %w", err)
	}
	if _, err := srv.Registry().Restore(ctx, st.Recovered().Topologies); err != nil {
		st.Close()
		return nil, fmt.Errorf("e2e: warm start: %w", err)
	}
	srv.Registry().AttachStore(st)
	return &Harness{Server: srv, HTTP: httptest.NewServer(srv.Handler()), Store: st}, nil
}

// URL is the harness's loopback base URL.
func (h *Harness) URL() string { return h.HTTP.URL }

// Close shuts the loopback server down, then the store (when
// persistent) so the journal's tail is fsynced — the graceful-restart
// path. Crash tests skip Close entirely.
func (h *Harness) Close() {
	h.HTTP.Close()
	if h.Store != nil {
		h.Store.Close()
	}
}

// WireTopology converts a built tomography system into the
// POST /v1/topologies wire format (named edges and node-name walks) —
// the same serialization the persistence journal uses, so a registered
// and a recovered topology are digest-identical by construction.
func WireTopology(name string, sys *tomo.System, alpha float64) (serve.TopologyRequest, error) {
	doc, err := serve.DocFromSystem(name, sys, alpha)
	if err != nil {
		return serve.TopologyRequest{}, fmt.Errorf("e2e: wire topology: %w", err)
	}
	return serve.TopologyRequest{Name: doc.Name, Edges: doc.Edges, Paths: doc.Paths, Alpha: doc.Alpha}, nil
}

// Client is a thin JSON client for the daemon API, usable against the
// harness or a remote tomographyd. Its HTTP client may carry a Chaos
// transport; helper methods that must not be disturbed by chaos (setup,
// metrics scraping) should use a plain client.
type Client struct {
	Base string
	HTTP *http.Client
}

// NewClient targets base with httpc (nil = http.DefaultClient).
func NewClient(base string, httpc *http.Client) *Client {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: httpc}
}

// do posts body as JSON (or issues a bodyless method call) and returns
// the status plus the raw response body.
func (c *Client) do(ctx context.Context, method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		// Status arrived but the body was cut (chaos truncate/reset).
		return resp.StatusCode, raw, err
	}
	return resp.StatusCode, raw, nil
}

// PostRaw posts an arbitrary byte body (the load generator's malformed-
// JSON fault op) and returns status, body, and transport/body error.
func (c *Client) PostRaw(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// Register registers sys under name, tolerating an already-registered
// identical configuration (409) so scenario setup is idempotent against
// a long-lived daemon.
func (c *Client) Register(ctx context.Context, name string, sys *tomo.System, alpha float64) (*serve.TopologyResponse, error) {
	wire, err := WireTopology(name, sys, alpha)
	if err != nil {
		return nil, err
	}
	status, raw, err := c.do(ctx, http.MethodPost, "/v1/topologies", wire)
	if err != nil {
		return nil, fmt.Errorf("e2e: register %s: %w", name, err)
	}
	if status == http.StatusConflict {
		return nil, nil
	}
	if status != http.StatusCreated {
		return nil, fmt.Errorf("e2e: register %s: status %d: %s", name, status, raw)
	}
	var tr serve.TopologyResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		return nil, fmt.Errorf("e2e: register %s: %w", name, err)
	}
	return &tr, nil
}

// Estimate posts one estimate request (len(rounds) == 1 uses the single
// form) and returns status, parsed response (nil if unparsable), and the
// transport/body error if any.
func (c *Client) Estimate(ctx context.Context, topology string, rounds []la.Vector) (int, *serve.EstimateResponse, error) {
	status, raw, err := c.do(ctx, http.MethodPost, "/v1/estimate", roundsBody(topology, rounds, 0))
	if err != nil || status != http.StatusOK {
		return status, nil, err
	}
	var er serve.EstimateResponse
	if jerr := json.Unmarshal(raw, &er); jerr != nil {
		return status, nil, jerr
	}
	return status, &er, nil
}

// Inspect posts one inspect request and returns status, parsed response
// (nil if unparsable), and the transport/body error if any.
func (c *Client) Inspect(ctx context.Context, topology string, rounds []la.Vector, alpha float64) (int, *serve.InspectResponse, error) {
	status, raw, err := c.do(ctx, http.MethodPost, "/v1/inspect", roundsBody(topology, rounds, alpha))
	if err != nil || status != http.StatusOK {
		return status, nil, err
	}
	var ir serve.InspectResponse
	if jerr := json.Unmarshal(raw, &ir); jerr != nil {
		return status, nil, jerr
	}
	return status, &ir, nil
}

// Evict deletes a topology by name.
func (c *Client) Evict(ctx context.Context, name string) (int, error) {
	status, _, err := c.do(ctx, http.MethodDelete, "/v1/topologies/"+name, nil)
	return status, err
}

// Healthz fetches the liveness endpoint.
func (c *Client) Healthz(ctx context.Context) (int, *serve.HealthResponse, error) {
	status, raw, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil || status != http.StatusOK {
		return status, nil, err
	}
	var hr serve.HealthResponse
	if jerr := json.Unmarshal(raw, &hr); jerr != nil {
		return status, nil, jerr
	}
	return status, &hr, nil
}

// Forensics fetches a topology's forensics snapshot (residual
// quantiles, suspicion ledger, alarm bursts, exemplars).
func (c *Client) Forensics(ctx context.Context, name string) (int, *forensics.Snapshot, error) {
	status, raw, err := c.do(ctx, http.MethodGet, "/v1/topologies/"+name+"/forensics", nil)
	if err != nil || status != http.StatusOK {
		return status, nil, err
	}
	var snap forensics.Snapshot
	if jerr := json.Unmarshal(raw, &snap); jerr != nil {
		return status, nil, jerr
	}
	return status, &snap, nil
}

// MetricsSnapshot scrapes /metrics and parses the exposition into a
// flat map keyed by "name" or `name{labels}`.
func (c *Client) MetricsSnapshot(ctx context.Context) (map[string]float64, error) {
	status, raw, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("e2e: /metrics status %d", status)
	}
	return ParsePrometheus(string(raw))
}

// ParsePrometheus parses text-exposition counters/gauges into a map.
// Histogram series parse like any other sample line.
func ParsePrometheus(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			return nil, fmt.Errorf("e2e: bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("e2e: bad metrics value in %q: %w", line, err)
		}
		out[line[:idx]] = v
	}
	return out, nil
}

func roundsBody(topology string, rounds []la.Vector, alpha float64) serve.RoundsRequest {
	rr := serve.RoundsRequest{Topology: topology, Alpha: alpha}
	if len(rounds) == 1 {
		rr.Y = rounds[0]
		return rr
	}
	rr.Rounds = make([][]float64, len(rounds))
	for i, y := range rounds {
		rr.Rounds[i] = y
	}
	return rr
}
