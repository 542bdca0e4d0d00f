package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/store"
)

// testShard is one in-process tomographyd with a durable store.
type testShard struct {
	srv *serve.Server
	ts  *httptest.Server
	st  *store.Store
	// tailer is nil on the boot primary.
	tailer *cluster.Tailer
}

// testFleet wires groups×replicas shards behind a router whose
// AfterWrite hook steps every follower tailer synchronously — the same
// deterministic-replication shape the e2e fleet harness uses.
type testFleet struct {
	rt     *cluster.Router
	ts     *httptest.Server
	shards [][]*testShard

	mu       sync.Mutex
	syncErrs []error
}

func newTestFleet(t testing.TB, groups, replicas int) *testFleet {
	t.Helper()
	f := &testFleet{}
	urls := make([][]string, groups)
	for g := 0; g < groups; g++ {
		var row []*testShard
		for i := 0; i < replicas; i++ {
			st, err := store.Open(context.Background(), t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			srv := serve.New(serve.Config{RequestTimeout: -1})
			if i == 0 {
				srv.Registry().AttachStore(st)
				srv.EnableReplication(st, serve.RolePrimary)
			} else {
				srv.EnableReplication(st, serve.RoleFollower)
			}
			sh := &testShard{srv: srv, st: st, ts: httptest.NewServer(srv.Handler())}
			t.Cleanup(sh.ts.Close)
			t.Cleanup(func() { sh.st.Close() })
			row = append(row, sh)
			urls[g] = append(urls[g], sh.ts.URL)
		}
		f.shards = append(f.shards, row)
	}
	rt, err := cluster.New(cluster.Config{Groups: urls})
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	for g, row := range f.shards {
		grp := rt.Groups()[g]
		for _, sh := range row[1:] {
			sh.tailer = &cluster.Tailer{
				Server: sh.srv,
				Source: func() string { return grp.Primary().URL },
			}
		}
	}
	rt.AfterWrite = func(g int) {
		for _, sh := range f.shards[g][1:] {
			for {
				n, err := sh.tailer.Step(context.Background())
				if err != nil {
					f.mu.Lock()
					f.syncErrs = append(f.syncErrs, err)
					f.mu.Unlock()
					return
				}
				if n == 0 {
					break
				}
			}
		}
	}
	f.ts = httptest.NewServer(rt)
	t.Cleanup(f.ts.Close)
	t.Cleanup(func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, err := range f.syncErrs {
			t.Errorf("replication sync: %v", err)
		}
	})
	return f
}

// chainReq builds a k-link chain topology (nodes n0..nk) with prefix
// paths, which is identifiable (rank k) and has a digest that depends
// on k — so different k values place on different ring keys.
func chainReq(name string, k int) serve.TopologyRequest {
	req := serve.TopologyRequest{Name: name}
	for i := 0; i < k; i++ {
		req.Edges = append(req.Edges, []string{node(i), node(i + 1)})
	}
	for i := 0; i < k; i++ {
		walk := []string{node(0)}
		for j := 0; j <= i; j++ {
			walk = append(walk, node(j+1))
		}
		req.Paths = append(req.Paths, walk)
	}
	return req
}

func node(i int) string { return fmt.Sprintf("n%d", i) }

// chainY is the measurement vector for true delays x_i = i+1 on a
// k-link chain with prefix paths: y_j = sum of the first j+1 delays.
func chainY(k int) []float64 {
	y := make([]float64, k)
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += float64(i + 1)
		y[i] = sum
	}
	return y
}

func postJSON(t testing.TB, base, path string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func doReq(t testing.TB, method, url string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func mustRegister(t testing.TB, f *testFleet, name string, k int) {
	t.Helper()
	status, raw := postJSON(t, f.ts.URL, "/v1/topologies", chainReq(name, k))
	if status != http.StatusCreated {
		t.Fatalf("register %s: %d %s", name, status, raw)
	}
}

func estimateXHat(t testing.TB, base, name string, k int) (int, []float64) {
	t.Helper()
	status, raw := postJSON(t, base, "/v1/estimate", serve.RoundsRequest{Topology: name, Y: chainY(k)})
	if status != http.StatusOK {
		return status, nil
	}
	var er serve.EstimateResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatalf("estimate %s: %v (%s)", name, err, raw)
	}
	if len(er.Results) != 1 {
		t.Fatalf("estimate %s: %d results", name, len(er.Results))
	}
	return status, er.Results[0].XHat
}

func TestRouterShardsAndReplicates(t *testing.T) {
	f := newTestFleet(t, 3, 2)
	groupsUsed := make(map[int]bool)
	for k := 1; k <= 6; k++ {
		name := fmt.Sprintf("chain-%d", k)
		mustRegister(t, f, name, k)
		gidx, ok := f.rt.Lookup(name)
		if !ok {
			t.Fatalf("no placement learned for %s", name)
		}
		groupsUsed[gidx] = true

		// Placement is the consistent hash of the routing-matrix digest.
		req := chainReq(name, k)
		digest, err := serve.WireDigest(req.Edges, req.Paths)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.rt.Ring().Place(digest); want != gidx {
			t.Fatalf("%s placed on group %d, ring says %d", name, gidx, want)
		}

		// Two reads through the router land on different replicas
		// (round-robin) yet return identical solves.
		_, x1 := estimateXHat(t, f.ts.URL, name, k)
		_, x2 := estimateXHat(t, f.ts.URL, name, k)
		for i := range x1 {
			if x1[i] != x2[i] {
				t.Fatalf("%s: replica solves differ at %d: %g vs %g", name, i, x1[i], x2[i])
			}
			if want := float64(i + 1); absDiff(x1[i], want) > 1e-9 {
				t.Fatalf("%s: xhat[%d] = %g, want %g", name, i, x1[i], want)
			}
		}

		// The follower already serves the replicated topology directly,
		// and reports follower role with zero lag.
		follower := f.shards[gidx][1]
		if status, _ := estimateXHat(t, follower.ts.URL, name, k); status != http.StatusOK {
			t.Fatalf("%s: follower direct estimate: %d", name, status)
		}
		var hz serve.HealthResponse
		_, raw := doReq(t, http.MethodGet, follower.ts.URL+"/healthz", nil)
		if err := json.Unmarshal(raw, &hz); err != nil {
			t.Fatal(err)
		}
		if hz.Role != "follower" || hz.ReplicationLag == nil || *hz.ReplicationLag != 0 {
			t.Fatalf("%s: follower healthz %s", name, raw)
		}
	}
	if len(groupsUsed) < 2 {
		t.Fatalf("6 distinct digests all hashed to one group: %v", groupsUsed)
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestRouterEvictFollowsPlacement(t *testing.T) {
	f := newTestFleet(t, 2, 2)
	mustRegister(t, f, "chain-3", 3)
	gidx, _ := f.rt.Lookup("chain-3")

	status, raw := doReq(t, http.MethodDelete, f.ts.URL+"/v1/topologies/chain-3", nil)
	if status != http.StatusOK {
		t.Fatalf("evict: %d %s", status, raw)
	}
	if _, ok := f.rt.Lookup("chain-3"); ok {
		t.Fatal("placement survived eviction")
	}
	if status, _ := estimateXHat(t, f.ts.URL, "chain-3", 3); status != http.StatusNotFound {
		t.Fatalf("estimate after evict: %d", status)
	}
	// The eviction replicated: the group's follower 404s too.
	if status, _ := estimateXHat(t, f.shards[gidx][1].ts.URL, "chain-3", 3); status != http.StatusNotFound {
		t.Fatalf("follower estimate after evict: %d", status)
	}
}

// Unknown names and malformed bodies must route deterministically (the
// load generator's fault ops assert exact statuses run after run).
func TestRouterFaultRoutingDeterministic(t *testing.T) {
	f := newTestFleet(t, 3, 1)
	for i := 0; i < 3; i++ {
		if status, _ := estimateXHat(t, f.ts.URL, "ghost", 2); status != http.StatusNotFound {
			t.Fatalf("ghost estimate run %d: %d", i, status)
		}
		resp, err := http.Post(f.ts.URL+"/v1/estimate", "application/json",
			strings.NewReader(`{"topology": "chain`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed estimate run %d: %d", i, resp.StatusCode)
		}
	}
}

func TestRouterWriteFailoverPromotesWarmFollower(t *testing.T) {
	f := newTestFleet(t, 1, 3)
	mustRegister(t, f, "chain-2", 2)
	mustRegister(t, f, "chain-3", 3)

	// Crash the primary without ceremony.
	f.shards[0][0].ts.CloseClientConnections()
	f.shards[0][0].ts.Close()

	// The next write fails over transparently: the router marks the dead
	// primary down, promotes the first live follower (warm — its journal
	// is byte-identical), and re-sends.
	mustRegister(t, f, "chain-4", 4)

	if got := f.rt.Metrics().Failovers.Load(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	g := f.rt.Groups()[0]
	if g.PrimaryIndex() != 1 {
		t.Fatalf("primary index after failover: %d", g.PrimaryIndex())
	}
	promoted := f.shards[0][1]
	if promoted.srv.Role() != serve.RolePrimary {
		t.Fatalf("promoted shard role: %v", promoted.srv.Role())
	}
	// Zero acknowledged-write loss: every write acked before and after
	// the crash is served, and the promoted journal holds all three.
	for k := 2; k <= 4; k++ {
		if status, _ := estimateXHat(t, f.ts.URL, fmt.Sprintf("chain-%d", k), k); status != http.StatusOK {
			t.Fatalf("chain-%d lost across failover: %d", k, status)
		}
	}
	if got := promoted.st.LastSeq(); got != 3 {
		t.Fatalf("promoted WAL seq = %d, want 3", got)
	}
	// The surviving follower re-pointed its tail at the new primary and
	// replicated the post-failover write.
	if status, _ := estimateXHat(t, f.shards[0][2].ts.URL, "chain-4", 4); status != http.StatusOK {
		t.Fatal("surviving follower missed the post-failover write")
	}
	if got := f.shards[0][2].st.LastSeq(); got != 3 {
		t.Fatalf("surviving follower WAL seq = %d, want 3", got)
	}
}

func TestRouterSessionsSticky(t *testing.T) {
	f := newTestFleet(t, 2, 2)
	mustRegister(t, f, "chain-2", 2)

	status, raw := postJSON(t, f.ts.URL, "/v1/sessions", serve.SessionRequest{Topology: "chain-2"})
	if status != http.StatusCreated {
		t.Fatalf("session create: %d %s", status, raw)
	}
	var sess serve.SessionResponse
	if err := json.Unmarshal(raw, &sess); err != nil {
		t.Fatal(err)
	}

	// Rounds stream through the pinned node.
	line, err := json.Marshal(serve.StreamRound{Y: chainY(2)})
	if err != nil {
		t.Fatal(err)
	}
	status, raw = doReq(t, http.MethodPost, f.ts.URL+"/v1/sessions/"+sess.Session+"/rounds", append(line, '\n'))
	if status != http.StatusOK {
		t.Fatalf("rounds: %d %s", status, raw)
	}
	var verdict serve.StreamVerdict
	if err := json.Unmarshal([]byte(strings.SplitN(string(raw), "\n", 2)[0]), &verdict); err != nil {
		t.Fatalf("verdict line: %v (%s)", err, raw)
	}

	status, raw = doReq(t, http.MethodGet, f.ts.URL+"/v1/sessions/"+sess.Session, nil)
	if status != http.StatusOK {
		t.Fatalf("session get: %d %s", status, raw)
	}
	var ss serve.SessionStatusResponse
	if err := json.Unmarshal(raw, &ss); err != nil {
		t.Fatal(err)
	}
	if ss.Rounds != 1 {
		t.Fatalf("session rounds = %d, want 1", ss.Rounds)
	}

	if status, raw = doReq(t, http.MethodDelete, f.ts.URL+"/v1/sessions/"+sess.Session, nil); status != http.StatusOK {
		t.Fatalf("session delete: %d %s", status, raw)
	}
	// The pin is gone: the router itself 404s without touching a shard.
	if status, _ = doReq(t, http.MethodGet, f.ts.URL+"/v1/sessions/"+sess.Session, nil); status != http.StatusNotFound {
		t.Fatalf("deleted session get: %d", status)
	}
	if status, _ = doReq(t, http.MethodGet, f.ts.URL+"/v1/sessions/no-such-session", nil); status != http.StatusNotFound {
		t.Fatalf("ghost session get: %d", status)
	}
}

// TestRouterSessionIDsUniqueAcrossNodes opens two sessions through a
// 1-group × 2-replica router, whose round-robin lands one on each node.
// Every daemon numbers its sessions from 1, so the IDs must still
// differ across nodes: the router pins sessions by ID, and a shared ID
// would send one session's traffic to the other node's session.
func TestRouterSessionIDsUniqueAcrossNodes(t *testing.T) {
	f := newTestFleet(t, 1, 2)
	mustRegister(t, f, "chain-2", 2)

	ids := make([]string, 2)
	for i := range ids {
		status, raw := postJSON(t, f.ts.URL, "/v1/sessions", serve.SessionRequest{Topology: "chain-2"})
		if status != http.StatusCreated {
			t.Fatalf("session %d create: %d %s", i, status, raw)
		}
		var sess serve.SessionResponse
		if err := json.Unmarshal(raw, &sess); err != nil {
			t.Fatal(err)
		}
		ids[i] = sess.Session
	}
	if ids[0] == ids[1] {
		t.Fatalf("two nodes minted the same session ID %q", ids[0])
	}

	status, raw := doReq(t, http.MethodGet, f.ts.URL+"/cluster/healthz", nil)
	if status != http.StatusOK {
		t.Fatalf("cluster healthz: %d", status)
	}
	var ch cluster.ClusterHealth
	if err := json.Unmarshal(raw, &ch); err != nil {
		t.Fatal(err)
	}
	if ch.Sessions != 2 {
		t.Fatalf("cluster healthz sessions = %d, want 2", ch.Sessions)
	}

	// Session i gets i+1 rounds, so each GET proves which node's session
	// answered it.
	line, err := json.Marshal(serve.StreamRound{Y: chainY(2)})
	if err != nil {
		t.Fatal(err)
	}
	line = append(line, '\n')
	for i, id := range ids {
		body := bytes.Repeat(line, i+1)
		if status, raw := doReq(t, http.MethodPost, f.ts.URL+"/v1/sessions/"+id+"/rounds", body); status != http.StatusOK {
			t.Fatalf("session %s rounds: %d %s", id, status, raw)
		}
	}
	for i, id := range ids {
		status, raw := doReq(t, http.MethodGet, f.ts.URL+"/v1/sessions/"+id, nil)
		if status != http.StatusOK {
			t.Fatalf("session %s get: %d %s", id, status, raw)
		}
		var ss serve.SessionStatusResponse
		if err := json.Unmarshal(raw, &ss); err != nil {
			t.Fatal(err)
		}
		if ss.Session != id || ss.Rounds != int64(i+1) {
			t.Errorf("GET %s answered session %s with %d rounds, want %d", id, ss.Session, ss.Rounds, i+1)
		}
	}
}

func TestRouterFanReadsAndClusterEndpoints(t *testing.T) {
	f := newTestFleet(t, 2, 2)
	mustRegister(t, f, "chain-2", 2)

	// /healthz and /metrics proxy real shard bodies.
	status, raw := doReq(t, http.MethodGet, f.ts.URL+"/healthz", nil)
	if status != http.StatusOK {
		t.Fatalf("healthz: %d %s", status, raw)
	}
	var hz serve.HealthResponse
	if err := json.Unmarshal(raw, &hz); err != nil || hz.Status != "ok" {
		t.Fatalf("healthz body: %v %s", err, raw)
	}
	status, raw = doReq(t, http.MethodGet, f.ts.URL+"/metrics", nil)
	if status != http.StatusOK || !strings.Contains(string(raw), "tomographyd_requests_total") {
		t.Fatalf("metrics: %d %.120s", status, raw)
	}

	// The router's own fleet view.
	status, raw = doReq(t, http.MethodGet, f.ts.URL+"/cluster/healthz", nil)
	if status != http.StatusOK {
		t.Fatalf("cluster healthz: %d", status)
	}
	var ch cluster.ClusterHealth
	if err := json.Unmarshal(raw, &ch); err != nil {
		t.Fatal(err)
	}
	if len(ch.Groups) != 2 || len(ch.Groups[0].Nodes) != 2 || ch.Placements != 1 {
		t.Fatalf("cluster healthz body: %s", raw)
	}
	if !ch.Groups[0].Nodes[0].Primary || ch.Groups[0].Nodes[1].Primary {
		t.Fatalf("primary flags wrong: %s", raw)
	}
	status, raw = doReq(t, http.MethodGet, f.ts.URL+"/cluster/metrics", nil)
	if status != http.StatusOK || !strings.Contains(string(raw), "tomographyd_cluster_requests_total") {
		t.Fatalf("cluster metrics: %d %.120s", status, raw)
	}
	if !strings.Contains(string(raw), "tomographyd_cluster_groups 2") {
		t.Fatalf("cluster groups gauge missing: %s", raw)
	}
}

// A read with the primary dead retries onto a follower without the
// client noticing — the replica's response is byte-identical.
func TestRouterReadRetriesAcrossReplicas(t *testing.T) {
	f := newTestFleet(t, 1, 2)
	mustRegister(t, f, "chain-3", 3)
	_, want := estimateXHat(t, f.ts.URL, "chain-3", 3)

	f.shards[0][0].ts.CloseClientConnections()
	f.shards[0][0].ts.Close()

	// Repeated reads all succeed from the follower.
	for i := 0; i < 4; i++ {
		status, got := estimateXHat(t, f.ts.URL, "chain-3", 3)
		if status != http.StatusOK {
			t.Fatalf("read %d after primary death: %d", i, status)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("read %d: xhat differs at %d", i, j)
			}
		}
	}
	if f.rt.Metrics().ReadRetries.Load() == 0 {
		t.Fatal("no read retries counted")
	}
}

// A client hanging up must not be blamed on the fleet: no node marked
// down, no failover, no promotion — a single impatient client must
// never erode the routing table or depose a healthy primary.
func TestRouterClientCancelLeavesFleetUp(t *testing.T) {
	f := newTestFleet(t, 1, 2)
	mustRegister(t, f, "chain-2", 2)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	estBody, err := json.Marshal(serve.RoundsRequest{Topology: "chain-2", Y: chainY(2)})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(estBody)).WithContext(ctx)
	f.rt.ServeHTTP(httptest.NewRecorder(), req)

	regBody, err := json.Marshal(chainReq("chain-4", 4))
	if err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/topologies", bytes.NewReader(regBody)).WithContext(ctx)
	f.rt.ServeHTTP(httptest.NewRecorder(), req)

	g := f.rt.Groups()[0]
	for _, n := range g.Nodes() {
		if n.Down() {
			t.Fatalf("%s marked down by a client cancel", n.Name)
		}
	}
	if got := f.rt.Metrics().Failovers.Load(); got != 0 {
		t.Fatalf("client cancel triggered %d failovers", got)
	}
	if g.PrimaryIndex() != 0 {
		t.Fatal("client cancel moved the primary")
	}
	// The fleet still serves reads and takes the abandoned write fresh.
	if status, _ := estimateXHat(t, f.ts.URL, "chain-2", 2); status != http.StatusOK {
		t.Fatalf("read after client cancel: %d", status)
	}
	mustRegister(t, f, "chain-4", 4)
}

// Down is a decaying hint: the prober returns a reachable node to
// routing and leaves a genuinely dead one alone.
func TestRouterProberRecoversNodes(t *testing.T) {
	f := newTestFleet(t, 1, 2)
	follower := f.rt.Groups()[0].Nodes()[1]

	follower.MarkDown()
	if got := f.rt.ProbeDown(context.Background()); got != 1 {
		t.Fatalf("ProbeDown recovered %d nodes, want 1", got)
	}
	if follower.Down() {
		t.Fatal("reachable node still down after probe")
	}
	if got := f.rt.Metrics().Recoveries.Load(); got != 1 {
		t.Fatalf("recoveries counter = %d, want 1", got)
	}

	f.shards[0][1].ts.CloseClientConnections()
	f.shards[0][1].ts.Close()
	follower.MarkDown()
	if got := f.rt.ProbeDown(context.Background()); got != 0 {
		t.Fatalf("ProbeDown revived a dead node (%d recovered)", got)
	}
	if !follower.Down() {
		t.Fatal("dead node probed back into routing")
	}
}

// A restarted router (empty placement map) must re-learn where existing
// topologies live from the fleet, not fall back to hashing names.
func TestRouterRestartRebuildsPlacements(t *testing.T) {
	f := newTestFleet(t, 3, 1)
	for k := 1; k <= 6; k++ {
		mustRegister(t, f, fmt.Sprintf("chain-%d", k), k)
	}

	urls := make([][]string, len(f.shards))
	for g, row := range f.shards {
		for _, sh := range row {
			urls[g] = append(urls[g], sh.ts.URL)
		}
	}
	rt2, err := cluster.New(cluster.Config{Groups: urls})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.SyncPlacements(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(rt2)
	defer ts2.Close()

	for k := 1; k <= 6; k++ {
		name := fmt.Sprintf("chain-%d", k)
		want, ok := f.rt.Lookup(name)
		if !ok {
			t.Fatalf("original router lost placement for %s", name)
		}
		got, ok := rt2.Lookup(name)
		if !ok || got != want {
			t.Fatalf("restarted router placed %s on %d (known %v), original on %d", name, got, ok, want)
		}
		if status, _ := estimateXHat(t, ts2.URL, name, k); status != http.StatusOK {
			t.Fatalf("estimate %s through restarted router: %d", name, status)
		}
	}
	// Mutations through the restarted router land on the owning shard.
	if status, raw := doReq(t, http.MethodDelete, ts2.URL+"/v1/topologies/chain-1", nil); status != http.StatusOK {
		t.Fatalf("evict through restarted router: %d %s", status, raw)
	}
	if status, _ := estimateXHat(t, ts2.URL, "chain-1", 1); status != http.StatusNotFound {
		t.Fatal("evict through restarted router did not reach the owning shard")
	}
}

// Re-registering a live name with a different shape must reach the
// owning group (whose primary answers 409), not hash the new digest
// onto another group where a 201 would fork fleet-wide name uniqueness.
func TestRouterReRegisterRoutesToOwner(t *testing.T) {
	f := newTestFleet(t, 3, 1)
	mustRegister(t, f, "dup", 3)
	owner, ok := f.rt.Lookup("dup")
	if !ok {
		t.Fatal("no placement learned for dup")
	}

	// Find a shape whose digest hashes to a different group.
	alt := 0
	for k := 1; k <= 20 && alt == 0; k++ {
		req := chainReq("dup", k)
		digest, err := serve.WireDigest(req.Edges, req.Paths)
		if err != nil {
			t.Fatal(err)
		}
		if k != 3 && f.rt.Ring().Place(digest) != owner {
			alt = k
		}
	}
	if alt == 0 {
		t.Fatal("no alternate shape hashed off the owning group")
	}

	status, raw := postJSON(t, f.ts.URL, "/v1/topologies", chainReq("dup", alt))
	if status != http.StatusConflict {
		t.Fatalf("re-register with new shape: %d %s, want 409", status, raw)
	}
	if g, _ := f.rt.Lookup("dup"); g != owner {
		t.Fatalf("re-register moved the placement to group %d", g)
	}
	// No stray copy on the group the new digest hashes to.
	req := chainReq("dup", alt)
	digest, err := serve.WireDigest(req.Edges, req.Paths)
	if err != nil {
		t.Fatal(err)
	}
	stray := f.rt.Ring().Place(digest)
	if status, _ := estimateXHat(t, f.shards[stray][0].ts.URL, "dup", alt); status != http.StatusNotFound {
		t.Fatalf("stranded copy serving on group %d: %d", stray, status)
	}
	// The original registration still serves through the router.
	if status, _ := estimateXHat(t, f.ts.URL, "dup", 3); status != http.StatusOK {
		t.Fatalf("original registration lost: %d", status)
	}
}

// Failover must promote the follower with the highest applied WAL
// sequence, not the first one in ring order — promoting a laggard would
// silently drop acknowledged writes a better candidate still holds.
func TestRouterFailoverPromotesMostCaughtUpFollower(t *testing.T) {
	f := newTestFleet(t, 1, 3)
	mustRegister(t, f, "chain-2", 2) // both followers replicate seq 1

	// Let only follower 2 replicate the next write: follower 1 lags.
	full := f.rt.AfterWrite
	f.rt.AfterWrite = func(g int) {
		sh := f.shards[g][2]
		for {
			n, err := sh.tailer.Step(context.Background())
			if err != nil {
				t.Errorf("step %s: %v", sh.ts.URL, err)
				return
			}
			if n == 0 {
				return
			}
		}
	}
	mustRegister(t, f, "chain-3", 3)
	f.rt.AfterWrite = full
	if got := f.shards[0][1].st.LastSeq(); got != 1 {
		t.Fatalf("laggard follower at seq %d, want 1", got)
	}
	if got := f.shards[0][2].st.LastSeq(); got != 2 {
		t.Fatalf("caught-up follower at seq %d, want 2", got)
	}

	f.shards[0][0].ts.CloseClientConnections()
	f.shards[0][0].ts.Close()
	if err := f.rt.Failover(0); err != nil {
		t.Fatal(err)
	}
	g := f.rt.Groups()[0]
	if g.PrimaryIndex() != 2 {
		t.Fatalf("failover promoted index %d, want the most-caught-up follower 2", g.PrimaryIndex())
	}
	// Zero acknowledged-write loss on the promoted node: both
	// registrations survive in its journal and registry.
	for k := 2; k <= 3; k++ {
		if status, _ := estimateXHat(t, f.shards[0][2].ts.URL, fmt.Sprintf("chain-%d", k), k); status != http.StatusOK {
			t.Fatalf("chain-%d lost across failover: %d", k, status)
		}
	}
	// The laggard re-points at the promoted primary and catches up;
	// from then on every replica serves every acked write.
	for {
		n, err := f.shards[0][1].tailer.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	if got := f.shards[0][1].st.LastSeq(); got != 2 {
		t.Fatalf("laggard follower at seq %d after catch-up, want 2", got)
	}
	for k := 2; k <= 3; k++ {
		if status, _ := estimateXHat(t, f.ts.URL, fmt.Sprintf("chain-%d", k), k); status != http.StatusOK {
			t.Fatalf("chain-%d unreadable through the router after catch-up: %d", k, status)
		}
	}
}
