package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// maxProxyBody bounds a buffered request body on the retryable routes.
// Sticky session routes stream instead (NDJSON round feeds can be
// arbitrarily long) and are never retried.
const maxProxyBody = 64 << 20

// Config parameterizes a Router.
type Config struct {
	// Groups lists the fleet: one slice of node base URLs per
	// replication group, primary first.
	Groups [][]string
	// Vnodes is the per-group virtual-node count (0 = DefaultVnodes).
	Vnodes int
	// Client issues the proxied requests (nil = http.DefaultClient). A
	// chaos-wrapped client here simulates shard partitions: transport
	// errors mark the node down and engage read retry / write failover.
	Client *http.Client
	// Logger receives routing events (nil = silent).
	Logger *slog.Logger
	// Registry receives the tomographyd_cluster_* instruments (nil
	// allocates a private one, served on /cluster/metrics).
	Registry *obs.Registry
}

// Router is the fleet's front door: an http.Handler speaking the same
// API as a single tomographyd, dispatching each request to the right
// shard.
//
//   - Registrations hash their routing-matrix digest onto the ring and
//     forward to the owning group's primary; the ack is the shard's own
//     ack, which the daemon only sends after journaling (durability
//     before acknowledgement is inherited, not re-implemented).
//   - Evictions follow the placement learned at registration.
//   - Estimates, inspections, and forensics reads round-robin across
//     the owning group's replicas, retrying on transport failure or
//     shard-internal errors (5xx); any caught-up replica serves the
//     byte-identical response, so retry is invisible to the client.
//   - Sessions are sticky: created on a round-robin replica, then
//     pinned to that node (round state is node-local).
//   - /healthz and /metrics fan out round-robin across every node in
//     the fleet; the router's own fleet view lives on /cluster/healthz
//     and /cluster/metrics so per-shard bodies stay exactly what a
//     standalone daemon would serve.
//
// If a write finds the primary unreachable, the router fails over:
// marks it down, promotes the most-caught-up live follower (max applied
// WAL sequence over /healthz; the promoted journal is byte-identical to
// the dead primary's up to that sequence), and re-sends. Reads never
// promote — they just try the next replica. Down is a decaying hint,
// not a verdict: client-caused failures (cancel, timeout) never mark a
// node down, and ProbeDown/RunProber return nodes to routing once they
// answer /healthz again. SyncPlacements rebuilds the name → group map
// from the fleet at startup, so a router restart keeps routing
// pre-existing topologies to their shards.
type Router struct {
	ring    *Ring
	groups  []*Group
	flat    []*Node // every node, group-major, for fleet-wide fan reads
	flatGrp []int   // flat[i]'s group index
	httpc   *http.Client
	log     *slog.Logger
	metrics *Metrics
	mux     *http.ServeMux

	// fallback is the deterministic group for requests whose placement
	// key cannot be derived (malformed bodies, unknown names): hash of
	// the empty key. Any shard answers such requests identically (400 or
	// 404), the choice just has to be stable.
	fallback  int
	fanCursor counter

	mu       sync.RWMutex
	place    map[string]int   // topology name → owning group
	sessions map[string]*Node // session id → pinned node

	// AfterWrite, when set, runs after every acknowledged registry
	// mutation with the owning group's index. The deterministic fleet
	// soak uses it to step the group's tailers synchronously so every
	// replica is caught up before the next request can read; production
	// fleets leave it nil and rely on polling tailers plus read retry.
	AfterWrite func(group int)
}

// counter is a tiny atomic round-robin cursor.
type counter struct{ v atomic.Uint32 }

func (c *counter) next(mod int) int { return int((c.v.Add(1) - 1) % uint32(mod)) }

// New builds a router over the given fleet.
func New(cfg Config) (*Router, error) {
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one group")
	}
	ring, err := NewRing(len(cfg.Groups), cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		ring:     ring,
		httpc:    cfg.Client,
		log:      cfg.Logger,
		metrics:  NewMetrics(cfg.Registry),
		place:    make(map[string]int),
		sessions: make(map[string]*Node),
	}
	if rt.httpc == nil {
		rt.httpc = http.DefaultClient
	}
	if rt.log == nil {
		rt.log = slog.New(slog.DiscardHandler)
	}
	for i, urls := range cfg.Groups {
		g, err := NewGroup(i, urls)
		if err != nil {
			return nil, err
		}
		rt.groups = append(rt.groups, g)
		for _, n := range g.Nodes() {
			rt.flat = append(rt.flat, n)
			rt.flatGrp = append(rt.flatGrp, i)
		}
	}
	rt.fallback = ring.Place("")

	reg := rt.metrics.Registry()
	reg.GaugeFunc("tomographyd_cluster_groups",
		"Replication groups on the placement ring.",
		func() float64 { return float64(len(rt.groups)) })
	reg.GaugeFunc("tomographyd_cluster_nodes_down",
		"Fleet nodes currently routed around.",
		func() float64 {
			var down int
			for _, n := range rt.flat {
				if n.Down() {
					down++
				}
			}
			return float64(down)
		})
	reg.GaugeFunc("tomographyd_cluster_topologies_placed",
		"Topologies with a learned group placement.",
		func() float64 {
			rt.mu.RLock()
			defer rt.mu.RUnlock()
			return float64(len(rt.place))
		})
	reg.GaugeFunc("tomographyd_cluster_sessions_tracked",
		"Sessions pinned to a fleet node.",
		func() float64 {
			rt.mu.RLock()
			defer rt.mu.RUnlock()
			return float64(len(rt.sessions))
		})

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/topologies", rt.handleRegister)
	mux.HandleFunc("DELETE /v1/topologies/{name}", rt.handleEvict)
	mux.HandleFunc("GET /v1/topologies/{name}/forensics", rt.handleNamedRead)
	mux.HandleFunc("POST /v1/estimate", rt.handleBodyRead)
	mux.HandleFunc("POST /v1/inspect", rt.handleBodyRead)
	mux.HandleFunc("POST /v1/sessions", rt.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions/{id}", rt.handleSessionSticky)
	mux.HandleFunc("DELETE /v1/sessions/{id}", rt.handleSessionSticky)
	mux.HandleFunc("POST /v1/sessions/{id}/rounds", rt.handleSessionSticky)
	mux.HandleFunc("POST /v1/sessions/{id}/paths", rt.handleSessionSticky)
	mux.HandleFunc("GET /healthz", rt.handleFanRead)
	mux.HandleFunc("GET /metrics", rt.handleFanRead)
	mux.HandleFunc("GET /cluster/healthz", rt.handleClusterHealth)
	mux.HandleFunc("GET /cluster/metrics", rt.handleClusterMetrics)
	rt.mux = mux
	return rt, nil
}

// ServeHTTP dispatches to the routing handlers.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Groups exposes the fleet's replication groups.
func (rt *Router) Groups() []*Group { return rt.groups }

// Ring exposes the placement ring.
func (rt *Router) Ring() *Ring { return rt.ring }

// Metrics exposes the router instruments.
func (rt *Router) Metrics() *Metrics { return rt.metrics }

// Lookup returns the learned group placement for a topology name.
func (rt *Router) Lookup(name string) (int, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	g, ok := rt.place[name]
	return g, ok
}

// locate resolves a topology name to its group: the placement learned
// at registration when known, otherwise a deterministic hash of the
// name (whose shard will answer 404 — exactly what a ghost name
// deserves, and stable so transcripts don't depend on routing luck).
func (rt *Router) locate(name string) int {
	if g, ok := rt.Lookup(name); ok {
		return g
	}
	return rt.ring.Place(name)
}

// --- Proxy plumbing -----------------------------------------------------

// proxy re-issues r against node. body non-nil means the original body
// was buffered for retry; nil streams r.Body through (sticky routes).
func (rt *Router) proxy(r *http.Request, node *Node, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else if r.Body != nil {
		rd = r.Body
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, node.URL+r.URL.RequestURI(), rd)
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	return rt.httpc.Do(req)
}

// clientCaused reports whether a proxy error traces back to the client
// side of r: the inbound request's context was cancelled or timed out,
// so the upstream node is not to blame for the failure. Marking nodes
// down on such errors would let a single impatient client erode the
// routing table one cancel at a time — and, on the write path, trigger
// a spurious failover while the real primary is alive — so callers
// abort the request instead of blaming the node and retrying.
func clientCaused(r *http.Request, err error) bool {
	if r.Context().Err() != nil {
		return true
	}
	return errors.Is(err, context.Canceled)
}

// nodeHealth fetches and decodes a node's /healthz body — the router's
// window into a shard's role, applied WAL sequence, and topology list.
func (rt *Router) nodeHealth(ctx context.Context, n *Node) (serve.HealthResponse, error) {
	var hz serve.HealthResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/healthz", nil)
	if err != nil {
		return hz, err
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return hz, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return hz, fmt.Errorf("cluster: %s healthz: status %d", n.Name, resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&hz); err != nil {
		return hz, fmt.Errorf("cluster: %s healthz: %w", n.Name, err)
	}
	return hz, nil
}

// copyResponse relays a proxied response, flushing between chunks so
// streaming bodies (NDJSON verdicts) flow through instead of buffering.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

func (rt *Router) jsonError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// readBody buffers a retryable request body.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBody))
	if err != nil {
		rt.jsonError(w, http.StatusBadRequest, "cluster: read request body: "+err.Error())
		return nil, false
	}
	return body, true
}

// readThrough serves a read from any replica of group gidx: replicas in
// round-robin order, skipping down nodes, retrying on transport failure
// (mark down, next replica) and on shard-internal 5xx. Any caught-up
// replica returns the byte-identical response, so the retry is
// invisible in the transcript.
func (rt *Router) readThrough(w http.ResponseWriter, r *http.Request, gidx int, body []byte) {
	g := rt.groups[gidx]
	rt.metrics.Requests.With(strconv.Itoa(gidx)).Add(1)
	tried := 0
	for _, n := range g.readOrder() {
		if n.Down() {
			continue
		}
		if tried > 0 {
			rt.metrics.ReadRetries.Add(1)
		}
		tried++
		resp, err := rt.proxy(r, n, body)
		if err != nil {
			if clientCaused(r, err) {
				rt.jsonError(w, http.StatusBadGateway, "cluster: request abandoned by client: "+err.Error())
				return
			}
			rt.log.Warn("read replica failed", "node", n.Name, "err", err)
			n.MarkDown()
			continue
		}
		if resp.StatusCode >= 500 {
			resp.Body.Close()
			continue
		}
		copyResponse(w, resp)
		return
	}
	rt.jsonError(w, http.StatusBadGateway, fmt.Sprintf("cluster: no replica of group %d reachable", gidx))
}

// writeThrough forwards a registry mutation to group gidx's primary,
// failing over to a warm follower when the primary is unreachable. ack
// runs on the final status before it is relayed, so placement maps stay
// consistent with what the client saw acknowledged.
func (rt *Router) writeThrough(w http.ResponseWriter, r *http.Request, gidx int, body []byte, ack func(status int)) {
	g := rt.groups[gidx]
	rt.metrics.Requests.With(strconv.Itoa(gidx)).Add(1)
	rt.metrics.Writes.Add(1)
	for attempt := 0; attempt <= g.Replicas(); attempt++ {
		p := g.Primary()
		if p.Down() {
			if !rt.failover(g) {
				break
			}
			continue
		}
		resp, err := rt.proxy(r, p, body)
		if err != nil {
			if clientCaused(r, err) {
				// The client hung up, not the primary: failing over here
				// would promote a follower while the real primary is alive.
				rt.jsonError(w, http.StatusBadGateway, "cluster: write abandoned by client: "+err.Error())
				return
			}
			rt.log.Warn("primary write failed", "node", p.Name, "err", err)
			p.MarkDown()
			if !rt.failover(g) {
				break
			}
			continue
		}
		if resp.StatusCode == http.StatusMisdirectedRequest {
			// The node the router believed primary says it is a follower —
			// someone else already promoted past it. Re-point and retry.
			resp.Body.Close()
			if !rt.adoptPrimary(g) {
				break
			}
			continue
		}
		if ack != nil {
			ack(resp.StatusCode)
		}
		// AfterWrite runs before the ack is relayed: a deterministic soak
		// steps the group's tailers here, so by the time the client sees
		// the acknowledgement every replica can already serve the write.
		if rt.AfterWrite != nil {
			rt.AfterWrite(gidx)
		}
		copyResponse(w, resp)
		return
	}
	rt.jsonError(w, http.StatusBadGateway, fmt.Sprintf("cluster: no primary reachable in group %d", gidx))
}

// Failover promotes the next live follower of group gidx after marking
// the current primary down — the operator-facing form of the failover
// the write path performs on its own.
func (rt *Router) Failover(gidx int) error {
	if gidx < 0 || gidx >= len(rt.groups) {
		return fmt.Errorf("cluster: no group %d", gidx)
	}
	g := rt.groups[gidx]
	g.Primary().MarkDown()
	if !rt.failover(g) {
		return fmt.Errorf("cluster: group %d has no live follower to promote", gidx)
	}
	return nil
}

// failover promotes the most-caught-up live follower: every candidate
// is asked for its applied WAL sequence over /healthz and the maximum
// wins, ties breaking in ring order after the dead primary so the
// choice stays deterministic. Replication is asynchronous in a
// production fleet, so candidates can trail the dead primary by
// different amounts — promoting anything less than the max would
// silently drop acknowledged writes a better candidate still holds.
// The promoted journal is byte-identical to the dead primary's up to
// its applied sequence (the primary's frames, shipped verbatim),
// and its registry was rebuilt digest-verified from those frames — so
// promotion is just an HTTP promote plus a pointer flip. A candidate
// that already reports itself primary was promoted out-of-band and is
// adopted as-is.
func (rt *Router) failover(g *Group) bool {
	dead := g.PrimaryIndex()
	n := len(g.Nodes())
	type candidate struct {
		idx int
		seq uint64
	}
	var cands []candidate
	for off := 1; off < n; off++ {
		idx := (dead + off) % n
		node := g.Nodes()[idx]
		if node.Down() {
			continue
		}
		hz, err := rt.nodeHealth(context.Background(), node)
		if err != nil {
			rt.log.Warn("failover candidate unreachable", "node", node.Name, "err", err)
			node.MarkDown()
			continue
		}
		if hz.Role == serve.RolePrimary.String() {
			g.SetPrimary(idx)
			return true
		}
		cands = append(cands, candidate{idx: idx, seq: hz.AppliedSeq})
	}
	// Stable: equal sequences keep ring order after the dead primary.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].seq > cands[j].seq })
	for _, c := range cands {
		node := g.Nodes()[c.idx]
		pr, err := rt.promote(node)
		if err != nil || pr.Role != "primary" {
			rt.log.Warn("promote failed", "node", node.Name, "err", err)
			node.MarkDown()
			continue
		}
		g.SetPrimary(c.idx)
		rt.metrics.Failovers.Add(1)
		rt.log.Info("failed over", "group", g.Index, "primary", node.Name, "applied_seq", pr.AppliedSeq)
		return true
	}
	return false
}

// adoptPrimary scans the group for the node that already reports itself
// primary (after an out-of-band promotion) and adopts it.
func (rt *Router) adoptPrimary(g *Group) bool {
	for idx, n := range g.Nodes() {
		if n.Down() {
			continue
		}
		hz, err := rt.nodeHealth(context.Background(), n)
		if err != nil {
			n.MarkDown()
			continue
		}
		if hz.Role == serve.RolePrimary.String() {
			g.SetPrimary(idx)
			return true
		}
	}
	return false
}

// promote asks node to become primary.
func (rt *Router) promote(n *Node) (serve.PromoteResponse, error) {
	var pr serve.PromoteResponse
	resp, err := rt.httpc.Post(n.URL+"/v1/replication/promote", "application/json", nil)
	if err != nil {
		return pr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return pr, fmt.Errorf("cluster: promote %s: status %d: %s", n.Name, resp.StatusCode, raw)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&pr); err != nil {
		return pr, err
	}
	return pr, nil
}

// SyncPlacements rebuilds the name → group placement map from the fleet
// itself: each group's first reachable replica lists its registered
// topologies in /healthz, and every listed name is placed on that
// group. Run it at router startup — placement is otherwise learned only
// from acknowledged registrations, so a restarted (or second) router
// would route named reads for pre-existing topologies by the name-hash
// fallback, which agrees with the digest-based registration placement
// only by luck. Names already learned locally are kept; a name listed
// by two groups keeps the lowest-index one and logs the conflict.
func (rt *Router) SyncPlacements(ctx context.Context) error {
	type placement struct {
		name string
		g    int
	}
	var all []placement
	for gidx, g := range rt.groups {
		var lastErr error
		synced := false
		for _, n := range g.Nodes() {
			if n.Down() {
				continue
			}
			hz, err := rt.nodeHealth(ctx, n)
			if err != nil {
				lastErr = err
				continue
			}
			for _, name := range hz.Topologies {
				all = append(all, placement{name: name, g: gidx})
			}
			synced = true
			break
		}
		if !synced {
			return fmt.Errorf("cluster: sync placements: no replica of group %d reachable: %v", gidx, lastErr)
		}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, p := range all {
		if prev, ok := rt.place[p.name]; ok && prev != p.g {
			rt.log.Warn("placement conflict during sync", "topology", p.name, "kept", prev, "also_on", p.g)
			continue
		}
		rt.place[p.name] = p.g
	}
	return nil
}

// DefaultProbeInterval is the RunProber cadence when none is given.
const DefaultProbeInterval = 2 * time.Second

// ProbeDown probes every down node's /healthz once and returns how many
// answered — each marked back up and re-entered into routing. Down is a
// hint, not a verdict: transport failures mark nodes down so traffic
// routes around them, and the prober decays the hint once the node
// answers again, so a transient failure (partition healed, process
// restarted) never removes a node from the fleet permanently.
func (rt *Router) ProbeDown(ctx context.Context) int {
	recovered := 0
	for _, n := range rt.flat {
		if !n.Down() {
			continue
		}
		if _, err := rt.nodeHealth(ctx, n); err != nil {
			continue
		}
		n.MarkUp()
		recovered++
		rt.metrics.Recoveries.Add(1)
		rt.log.Info("node recovered", "node", n.Name)
	}
	return recovered
}

// RunProber probes down nodes every interval (0 = DefaultProbeInterval)
// until ctx ends — the background loop tomorouter runs so the routing
// table heals itself.
func (rt *Router) RunProber(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		rt.ProbeDown(ctx)
	}
}

// --- Handlers -----------------------------------------------------------

func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	gidx := rt.fallback
	name := ""
	var tr serve.TopologyRequest
	if err := json.Unmarshal(body, &tr); err == nil && tr.Name != "" {
		name = tr.Name
		if owner, ok := rt.Lookup(name); ok {
			// The name is already placed: route to its owner, whose
			// primary is the authority on re-registration (409). Hashing
			// the new payload's digest instead could land the same name on
			// a second group — a 201 there would fork fleet-wide name
			// uniqueness and strand the original copy on its shard.
			gidx = owner
		} else if digest, derr := serve.WireDigest(tr.Edges, tr.Paths); derr == nil {
			gidx = rt.ring.Place(digest)
		}
		// Invalid shapes keep the fallback group, whose primary rejects
		// them with the same 400 any shard would.
	}
	rt.writeThrough(w, r, gidx, body, func(status int) {
		if status == http.StatusCreated && name != "" {
			rt.mu.Lock()
			rt.place[name] = gidx
			rt.mu.Unlock()
		}
	})
}

func (rt *Router) handleEvict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	gidx := rt.locate(name)
	rt.writeThrough(w, r, gidx, []byte{}, func(status int) {
		if status == http.StatusOK {
			rt.mu.Lock()
			delete(rt.place, name)
			rt.mu.Unlock()
		}
	})
}

func (rt *Router) handleNamedRead(w http.ResponseWriter, r *http.Request) {
	rt.readThrough(w, r, rt.locate(r.PathValue("name")), []byte{})
}

func (rt *Router) handleBodyRead(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	gidx := rt.fallback
	var probe struct {
		Topology string `json:"topology"`
	}
	if err := json.Unmarshal(body, &probe); err == nil && probe.Topology != "" {
		gidx = rt.locate(probe.Topology)
	}
	rt.readThrough(w, r, gidx, body)
}

func (rt *Router) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	gidx := rt.fallback
	var sr serve.SessionRequest
	if err := json.Unmarshal(body, &sr); err == nil && sr.Topology != "" {
		gidx = rt.locate(sr.Topology)
	}
	g := rt.groups[gidx]
	rt.metrics.Requests.With(strconv.Itoa(gidx)).Add(1)
	for _, n := range g.readOrder() {
		if n.Down() {
			continue
		}
		resp, err := rt.proxy(r, n, body)
		if err != nil {
			if clientCaused(r, err) {
				rt.jsonError(w, http.StatusBadGateway, "cluster: request abandoned by client: "+err.Error())
				return
			}
			n.MarkDown()
			continue
		}
		if resp.StatusCode >= 500 {
			resp.Body.Close()
			continue
		}
		// Pin the session to the node that created it before relaying the
		// ack, so a follow-up round cannot race past the pin.
		raw, rerr := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
		resp.Body.Close()
		if rerr != nil {
			rt.jsonError(w, http.StatusBadGateway, "cluster: session create body: "+rerr.Error())
			return
		}
		if resp.StatusCode == http.StatusCreated {
			var sess serve.SessionResponse
			if err := json.Unmarshal(raw, &sess); err == nil && sess.Session != "" {
				rt.mu.Lock()
				rt.sessions[sess.Session] = n
				rt.mu.Unlock()
			}
		}
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(raw)
		return
	}
	rt.jsonError(w, http.StatusBadGateway, fmt.Sprintf("cluster: no replica of group %d reachable", gidx))
}

func (rt *Router) handleSessionSticky(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.mu.RLock()
	n := rt.sessions[id]
	rt.mu.RUnlock()
	if n == nil {
		rt.jsonError(w, http.StatusNotFound, fmt.Sprintf("cluster: unknown session %q", id))
		return
	}
	// Sticky routes stream the body through and never retry: round state
	// lives on the pinned node, so there is nowhere else to go.
	resp, err := rt.proxy(r, n, nil)
	if err != nil {
		// A client hanging up mid-stream keeps the pin and the node: the
		// session is still live on the shard for the next request.
		if !clientCaused(r, err) {
			n.MarkDown()
			rt.mu.Lock()
			delete(rt.sessions, id)
			rt.mu.Unlock()
		}
		rt.jsonError(w, http.StatusBadGateway, fmt.Sprintf("cluster: session node %s unreachable: %v", n.Name, err))
		return
	}
	if r.Method == http.MethodDelete && resp.StatusCode == http.StatusOK {
		rt.mu.Lock()
		delete(rt.sessions, id)
		rt.mu.Unlock()
	}
	copyResponse(w, resp)
}

// handleFanRead serves /healthz and /metrics from the next node in a
// fleet-wide round-robin, so liveness probes and scrapes exercise every
// shard while each body stays exactly a standalone daemon's body.
func (rt *Router) handleFanRead(w http.ResponseWriter, r *http.Request) {
	start := rt.fanCursor.next(len(rt.flat))
	for i := 0; i < len(rt.flat); i++ {
		idx := (start + i) % len(rt.flat)
		n := rt.flat[idx]
		if n.Down() {
			continue
		}
		if i > 0 {
			rt.metrics.ReadRetries.Add(1)
		}
		resp, err := rt.proxy(r, n, []byte{})
		if err != nil {
			if clientCaused(r, err) {
				rt.jsonError(w, http.StatusBadGateway, "cluster: request abandoned by client: "+err.Error())
				return
			}
			n.MarkDown()
			continue
		}
		if resp.StatusCode >= 500 {
			resp.Body.Close()
			continue
		}
		rt.metrics.Requests.With(strconv.Itoa(rt.flatGrp[idx])).Add(1)
		copyResponse(w, resp)
		return
	}
	rt.jsonError(w, http.StatusBadGateway, "cluster: no fleet node reachable")
}

// NodeHealth is one node's row in /cluster/healthz.
type NodeHealth struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Primary bool   `json:"primary"`
	Down    bool   `json:"down,omitempty"`
}

// GroupHealth is one replication group's row in /cluster/healthz.
type GroupHealth struct {
	Group int          `json:"group"`
	Nodes []NodeHealth `json:"nodes"`
}

// ClusterHealth is the body of GET /cluster/healthz — the router's own
// fleet view, distinct from the per-shard /healthz bodies it proxies.
type ClusterHealth struct {
	Status     string        `json:"status"`
	Groups     []GroupHealth `json:"groups"`
	Placements int           `json:"placements"`
	Sessions   int           `json:"sessions"`
}

func (rt *Router) handleClusterHealth(w http.ResponseWriter, _ *http.Request) {
	out := ClusterHealth{Status: "ok"}
	for _, g := range rt.groups {
		gh := GroupHealth{Group: g.Index}
		pidx := g.PrimaryIndex()
		for i, n := range g.Nodes() {
			gh.Nodes = append(gh.Nodes, NodeHealth{
				Name: n.Name, URL: n.URL, Primary: i == pidx, Down: n.Down(),
			})
		}
		out.Groups = append(out.Groups, gh)
	}
	rt.mu.RLock()
	out.Placements = len(rt.place)
	out.Sessions = len(rt.sessions)
	rt.mu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (rt *Router) handleClusterMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.metrics.Registry().WritePrometheus(w)
}
