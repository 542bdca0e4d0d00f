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
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/e2e"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/tomo"
)

// churn is the churn-routed workload: a cluster.Router over 2 groups x 2
// replicas, every node journaling to a durable store at the default
// fsync policy and every follower pulling the WAL with Tailer.Step at
// the daemon's default poll interval. Reads inspect three stable
// 1000-link backbones; writes are session path round trips (rank-1
// update and downdate) and evict+re-register cycles of a per-client
// name that reads never target, whose digest repeats a stable one so
// the solver cache serves it.
type churn struct {
	cfg    config
	stable []*e2e.Scenario
	alphas []float64
	// pool holds poolSize rounds per stable topology, topology k at
	// [k*poolSize, (k+1)*poolSize).
	pool     []pooled
	poolSize int
	// churnBody is each client's registration body.
	churnBody [clients][]byte
	// walks are the session topology's paths as node-name walks.
	walks   [][]string
	digests []string
	setups  int

	nodes    [][]*churnNode
	rts      *httptest.Server
	stopTail context.CancelFunc
	tails    sync.WaitGroup
	sessions [clients]string
	hc       [clients]*http.Client
	plans    [clients]*rand.Rand
	buf      [clients]*bytes.Buffer
}

// churnNode is one tomographyd of the fleet.
type churnNode struct {
	srv *serve.Server
	st  *store.Store
	ts  *httptest.Server
}

// churnOp is one planned op.
type churnOp struct {
	kind  string // inspect, paths, reregister
	topo  int
	start int
	n     int
	path  int
}

const (
	fleetGroups   = 2
	fleetReplicas = 2
)

func newChurn(cfg config) (*churn, error) {
	links := 1000
	if cfg.small {
		links = 150
	}
	b := &churn{cfg: cfg, poolSize: 32}
	// Fixed fixtures: the first backbone seeds whose digests spread over
	// both groups of the placement ring. The seed varies the traffic.
	ring, err := cluster.NewRing(fleetGroups, 0)
	if err != nil {
		return nil, err
	}
	groups := map[int]int{}
	for s := int64(1); len(b.stable) < 3; s++ {
		sc, err := e2e.BackboneScenario(fmt.Sprintf("backbone1k-%d", s), links, s)
		if err != nil {
			return nil, err
		}
		g := ring.Place(sc.Sys.Digest())
		if len(b.stable) == 2 && len(groups) == 1 && groups[g] > 0 {
			continue
		}
		groups[g]++
		b.stable = append(b.stable, sc)
	}
	type built struct {
		pool  []pooled
		alpha float64
		err   error
	}
	res := make([]built, len(b.stable))
	var wg sync.WaitGroup
	for k, sc := range b.stable {
		wg.Add(1)
		go func(k int, sc *e2e.Scenario) {
			defer wg.Done()
			seed := cfg.seed + int64(k)*101
			p, a, err := roundPool(sc, seed, b.poolSize, 0, attackedSet(seed, b.poolSize, b.poolSize/8), true)
			res[k] = built{p, a, err}
		}(k, sc)
	}
	wg.Wait()
	for k, r := range res {
		if r.err != nil {
			return nil, r.err
		}
		b.pool = append(b.pool, r.pool...)
		b.alphas = append(b.alphas, r.alpha)
		// The answers are pooled; drop the factorization and operator
		// the pool needed, so the benchmark's own heap does not slow the
		// servers' garbage collection. The replay rebuilds them.
		sc := b.stable[k]
		if sc.Sys, err = tomo.NewSystem(sc.Sys.Graph(), sc.Sys.Paths()); err != nil {
			return nil, err
		}
		sc.Det = nil
		b.digests = append(b.digests, sc.Sys.Digest())
	}
	for c := range b.churnBody {
		wire, err := e2e.WireTopology(fmt.Sprintf("churn-%d", c), b.stable[c].Sys, b.alphas[c])
		if err != nil {
			return nil, err
		}
		if b.churnBody[c], err = json.Marshal(wire); err != nil {
			return nil, err
		}
		if c == 0 {
			b.walks = wire.Paths
		}
	}
	return b, nil
}

// next draws the next op of a client's plan: 70% reads, 20% session path
// round trips, 10% evict+re-register cycles.
func (b *churn) next(rng *rand.Rand) churnOp {
	switch u := rng.Intn(100); {
	case u < 70:
		return churnOp{kind: "inspect", topo: rng.Intn(len(b.stable)), start: rng.Intn(b.poolSize), n: 1 + rng.Intn(4)}
	case u < 90:
		return churnOp{kind: "paths", path: rng.Intn(b.stable[0].Sys.NumPaths())}
	default:
		return churnOp{kind: "reregister"}
	}
}

func (b *churn) planDigest() string {
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

// setup boots the fleet the way cmd/tomographyd and cmd/tomorouter wire
// it, registers every topology through the router, waits for the
// followers to catch up, opens the sessions and warms every node.
func (b *churn) setup(ctx context.Context) error {
	b.close()
	b.setups++
	tailCtx, stop := context.WithCancel(context.Background())
	b.stopTail = stop
	urls := make([][]string, fleetGroups)
	b.nodes = make([][]*churnNode, fleetGroups)
	for g := range b.nodes {
		for i := 0; i < fleetReplicas; i++ {
			dir := filepath.Join(b.cfg.dir, "setup-"+strconv.Itoa(b.setups), fmt.Sprintf("g%d", g), fmt.Sprintf("n%d", i))
			n, err := openNode(ctx, dir, i == 0)
			if err != nil {
				return err
			}
			b.nodes[g] = append(b.nodes[g], n)
			urls[g] = append(urls[g], n.ts.URL)
		}
	}
	rt, err := cluster.New(cluster.Config{Groups: urls})
	if err != nil {
		return err
	}
	b.rts = httptest.NewServer(tracedHandler("cluster.route", rt))
	for g, row := range b.nodes {
		grp := rt.Groups()[g]
		for _, n := range row[1:] {
			t := &cluster.Tailer{Server: n.srv, Source: func() string { return grp.Primary().URL }}
			b.tails.Add(1)
			go func() {
				defer b.tails.Done()
				tail(tailCtx, t)
			}()
		}
	}

	setup := e2e.NewClient(b.rts.URL, nil)
	for k, sc := range b.stable {
		if _, err := setup.Register(ctx, sc.Name, sc.Sys, b.alphas[k]); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	for c := range b.churnBody {
		if err := call(ctx, http.DefaultClient, http.MethodPost, b.rts.URL+"/v1/topologies", "", b.churnBody[c], &buf); err != nil {
			return err
		}
	}
	if err := b.caughtUp(ctx); err != nil {
		return err
	}
	// Session IDs are node-local counters and the router pins sessions by
	// ID, so two nodes minting the same ID would share one pin. Offset
	// each node's counter by its fleet index with sessions opened on the
	// node directly, so the IDs the router sees are distinct.
	flat := 0
	for _, row := range b.nodes {
		for _, n := range row {
			direct := e2e.NewClient(n.ts.URL, nil)
			for k := 0; k < flat; k++ {
				if _, err := direct.OpenSession(ctx, n.srv.Registry().Names()[0], 0); err != nil {
					return err
				}
			}
			flat++
		}
	}
	for c := range b.hc {
		s, err := setup.OpenSession(ctx, b.stable[0].Name, 0)
		if err != nil {
			return err
		}
		b.sessions[c] = s.ID
		b.hc[c] = httpClient()
		b.plans[c] = planRNG(b.cfg.seed, c)
		b.buf[c] = new(bytes.Buffer)
	}
	if err := b.warmNodes(ctx); err != nil {
		return err
	}
	return warm(ctx, b, 10)
}

// openNode opens one shard: store, warm restore, role wiring.
func openNode(ctx context.Context, dir string, primary bool) (*churnNode, error) {
	srv := serve.New(serve.Config{})
	st, err := store.Open(ctx, dir, store.Options{
		Metrics: store.NewMetrics(srv.Metrics().Registry(), func() float64 { return float64(store.DirSize(dir)) }),
	})
	if err != nil {
		return nil, err
	}
	if _, err := srv.Registry().Restore(ctx, st.Recovered().Topologies); err != nil {
		st.Close()
		return nil, err
	}
	if primary {
		srv.Registry().AttachStore(tracedStore{st})
		srv.EnableReplication(st, serve.RolePrimary)
	} else {
		srv.EnableReplication(st, serve.RoleFollower)
	}
	return &churnNode{srv: srv, st: st, ts: httptest.NewServer(tracedHandler("serve.handle", srv.Handler()))}, nil
}

// tail is Tailer.Run with every Step timed: one pull per default poll
// interval until ctx ends.
func tail(ctx context.Context, t *cluster.Tailer) {
	tick := time.NewTicker(cluster.DefaultPollInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		t0 := time.Now()
		n, err := t.Step(ctx)
		if tr := active.Load(); tr != nil && err == nil {
			tr.sample("cluster.tail_step", time.Since(t0))
			tr.add("cluster.records_shipped", int64(n))
		}
	}
}

// caughtUp waits until every follower has applied its primary's WAL.
func (b *churn) caughtUp(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for _, row := range b.nodes {
		for _, n := range row[1:] {
			for n.srv.ReplicationStore().LastSeq() != row[0].st.LastSeq() {
				if time.Now().After(deadline) {
					return fmt.Errorf("follower stuck at seq %d, primary at %d", n.srv.ReplicationStore().LastSeq(), row[0].st.LastSeq())
				}
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(10 * time.Millisecond):
				}
			}
		}
	}
	return nil
}

// warmNodes inspects every topology on every node directly, in
// parallel, so each node materializes its estimation operators before
// the timed phase.
func (b *churn) warmNodes(ctx context.Context) error {
	var wg sync.WaitGroup
	errs := make(chan error, fleetGroups*fleetReplicas)
	for _, row := range b.nodes {
		for _, n := range row {
			wg.Add(1)
			go func(n *churnNode) {
				defer wg.Done()
				c := e2e.NewClient(n.ts.URL, nil)
				for k, sc := range b.stable {
					if _, err := n.srv.Registry().Get(sc.Name); err != nil {
						continue
					}
					status, _, err := c.Inspect(ctx, sc.Name, vectors(b.pool, []int{k * b.poolSize}), 0)
					if err == nil && status != http.StatusOK {
						err = fmt.Errorf("warm inspect of %s: status %d", sc.Name, status)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}(n)
		}
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func (b *churn) runClient(ctx context.Context, c int, until time.Time, maxOps int, rec *recorder) {
	sys := b.stable[0].Sys
	for i := 0; (maxOps == 0 || i < maxOps) && time.Now().Before(until); i++ {
		op := b.next(b.plans[c])
		switch op.kind {
		case "inspect":
			idx := make([]int, op.n)
			for j := range idx {
				idx[j] = op.topo*b.poolSize + (op.start+j)%b.poolSize
			}
			oneShot(ctx, b.hc[c], b.buf[c], b.rts.URL, "inspect", b.stable[op.topo].Name, b.pool, idx, rec)
		case "paths":
			pathRoundTrip(ctx, b.hc[c], b.rts.URL, b.sessions[c], b.walks[op.path], sys.NumPaths(), b.digests[0], rec, b.buf[c])
		default:
			name := fmt.Sprintf("churn-%d", c)
			digest := b.digests[c]
			for _, w := range []struct {
				method, url string
				body        []byte
				route       string
			}{
				{http.MethodDelete, b.rts.URL + "/v1/topologies/" + name, nil, "evict"},
				{http.MethodPost, b.rts.URL + "/v1/topologies", b.churnBody[c], "topologies"},
			} {
				if !writeOp(ctx, b.hc[c], b.buf[c], w.method, w.url, w.body, w.route, digest, rec) {
					break
				}
				rec.count("tomographyd_cluster_writes_forwarded_total", 1)
			}
		}
	}
}

// scrape waits for replication to settle, then sums every node's
// /metrics and adds the router's /cluster/metrics.
func (b *churn) scrape(ctx context.Context) (map[string]float64, error) {
	if err := b.caughtUp(ctx); err != nil {
		return nil, err
	}
	var urls []string
	for _, row := range b.nodes {
		for _, n := range row {
			urls = append(urls, n.ts.URL)
		}
	}
	m, err := sumScrapes(ctx, urls)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := call(ctx, http.DefaultClient, http.MethodGet, b.rts.URL+"/cluster/metrics", "", nil, &buf); err != nil {
		return nil, err
	}
	rm, err := e2e.ParsePrometheus(buf.String())
	if err != nil {
		return nil, err
	}
	for k, v := range rm {
		m[k] += v
	}
	return m, nil
}

func (b *churn) selfHits() map[string]float64 {
	return map[string]float64{
		routeKey("metrics"):                         fleetGroups * fleetReplicas,
		"tomographyd_request_errors_total":          0,
		"tomographyd_requests_rejected_total":       0,
		"tomographyd_cluster_read_retries_total":    0,
		"tomographyd_cluster_failovers_total":       0,
		"tomographyd_replication_promotions_total":  0,
		"tomographyd_cluster_node_recoveries_total": 0,
	}
}

func (b *churn) replay(ctx context.Context, lr *layerRec, p *phaseResult) error {
	lr.vals["cluster.retries"] = p.post["tomographyd_cluster_read_retries_total"] - p.pre["tomographyd_cluster_read_retries_total"]
	// Replay on the first stable topology: its pool and the recorded
	// reads of it.
	var bodies []recorded
	for _, r := range p.bodies {
		if r.rounds[0] < b.poolSize {
			bodies = append(bodies, r)
		}
	}
	sc := b.stable[0]
	wire, err := e2e.WireTopology("replay", sc.Sys, b.alphas[0])
	if err != nil {
		return err
	}
	return replayLayers(ctx, lr, &replayInput{
		name: sc.Name, sys: sc.Sys, wire: wire, alpha: b.alphas[0],
		pool: b.pool[:b.poolSize], bodies: bodies, metrics: b.nodes[0][0].srv.Metrics(),
	})
}

func (b *churn) meta() (string, string) {
	return store.FsyncAlways.String() + " (store default)", b.cfg.dir
}

func (b *churn) close() {
	if b.rts != nil {
		b.rts.Close()
		b.rts = nil
	}
	if b.stopTail != nil {
		b.stopTail()
		b.tails.Wait()
		b.stopTail = nil
	}
	for _, row := range b.nodes {
		for _, n := range row {
			n.ts.Close()
			n.st.Close()
		}
	}
	b.nodes = nil
	for _, hc := range b.hc {
		if hc != nil {
			hc.CloseIdleConnections()
		}
	}
}
