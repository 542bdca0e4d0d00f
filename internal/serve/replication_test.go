package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/store"
)

// replicationPair opens a primary server journaling to a store and a
// follower server tailing into its own store, both over real HTTP.
func replicationPair(t *testing.T) (primary, follower *Server, pts, fts *httptest.Server) {
	t.Helper()
	pst, err := store.Open(context.Background(), t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pst.Close() })
	primary = New(Config{})
	primary.Registry().AttachStore(pst)
	primary.EnableReplication(pst, RolePrimary)
	pts = httptest.NewServer(primary.Handler())
	t.Cleanup(pts.Close)

	fst, err := store.Open(context.Background(), t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fst.Close() })
	follower = New(Config{})
	follower.EnableReplication(fst, RoleFollower)
	fts = httptest.NewServer(follower.Handler())
	t.Cleanup(fts.Close)
	return primary, follower, pts, fts
}

// pullApply runs one replication pull from the primary into the
// follower — the tailer's loop body, driven synchronously for tests.
func pullApply(t *testing.T, pts *httptest.Server, follower *Server) {
	t.Helper()
	st := follower.ReplicationStore()
	resp, raw := get(t, pts, "/v1/replication/wal?from="+uitoa(st.LastSeq()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wal pull: %d %s", resp.StatusCode, raw)
	}
	var batch ReplicationBatch
	decodeInto(t, raw, &batch)
	if batch.Resync {
		if err := st.InstallSnapshot(batch.Docs, batch.ResyncSeq); err != nil {
			t.Fatal(err)
		}
		if err := follower.Registry().ResetReplicated(context.Background(), batch.Docs); err != nil {
			t.Fatal(err)
		}
	} else {
		if _, err := st.ApplyFrames(batch.Frames, func(rec store.Record) error {
			return follower.Registry().ApplyReplicated(context.Background(), rec)
		}); err != nil {
			t.Fatal(err)
		}
	}
	follower.SetReplicationLag(batch.LastSeq - st.LastSeq())
}

func uitoa(v uint64) string { return strconv.FormatUint(v, 10) }

func TestReplicationShipsRegistryOverHTTP(t *testing.T) {
	_, follower, pts, fts := replicationPair(t)
	edges, paths, _, sys := fig1Wire(t)

	if resp, raw := postJSON(t, pts, "/v1/topologies", TopologyRequest{Name: "fig1", Edges: edges, Paths: paths}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register on primary: %d %s", resp.StatusCode, raw)
	}
	pullApply(t, pts, follower)

	// The follower serves byte-identical estimates for the replicated
	// topology: same registry entry, same digest, same solver result.
	x := make([]float64, sys.NumLinks())
	for i := range x {
		x[i] = 7
	}
	y, err := sys.Measure(x)
	if err != nil {
		t.Fatal(err)
	}
	var fromPrimary, fromFollower EstimateResponse
	resp, raw := postJSON(t, pts, "/v1/estimate", RoundsRequest{Topology: "fig1", Y: y})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate on primary: %d %s", resp.StatusCode, raw)
	}
	decodeInto(t, raw, &fromPrimary)
	resp, raw = postJSON(t, fts, "/v1/estimate", RoundsRequest{Topology: "fig1", Y: y})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate on follower: %d %s", resp.StatusCode, raw)
	}
	decodeInto(t, raw, &fromFollower)
	if len(fromFollower.Results) != 1 || len(fromPrimary.Results) != 1 {
		t.Fatal("missing estimate results")
	}
	for i := range fromPrimary.Results[0].XHat {
		if fromPrimary.Results[0].XHat[i] != fromFollower.Results[0].XHat[i] {
			t.Fatalf("xhat[%d] differs: primary %g, follower %g",
				i, fromPrimary.Results[0].XHat[i], fromFollower.Results[0].XHat[i])
		}
	}

	// Eviction replicates too, and the follower's forensics unbind with
	// it (the same no-leak contract as a local evict).
	if resp, _ := postDelete(t, pts, "/v1/topologies/fig1"); resp.StatusCode != http.StatusOK {
		t.Fatal("evict on primary failed")
	}
	pullApply(t, pts, follower)
	if _, err := follower.Registry().Get("fig1"); err == nil {
		t.Fatal("follower still serves the evicted topology")
	}
	if follower.Forensics().Len() != 0 {
		t.Fatal("follower observatory leaked across replicated evict")
	}
}

func TestFollowerRejectsWritesWith421(t *testing.T) {
	_, _, _, fts := replicationPair(t)
	edges, paths, _, _ := fig1Wire(t)

	resp, raw := postJSON(t, fts, "/v1/topologies", TopologyRequest{Name: "fig1", Edges: edges, Paths: paths})
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("register on follower: %d %s, want 421", resp.StatusCode, raw)
	}
	req, _ := http.NewRequest(http.MethodDelete, fts.URL+"/v1/topologies/fig1", nil)
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("evict on follower: %d, want 421", hr.StatusCode)
	}
}

func TestHealthzReportsRoleAndLag(t *testing.T) {
	_, follower, pts, fts := replicationPair(t)
	edges, paths, _, _ := fig1Wire(t)
	if resp, raw := postJSON(t, pts, "/v1/topologies", TopologyRequest{Name: "fig1", Edges: edges, Paths: paths}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, raw)
	}

	var hz HealthResponse
	_, raw := get(t, pts, "/healthz")
	decodeInto(t, raw, &hz)
	if hz.Role != "primary" || hz.AppliedSeq != 1 || hz.ReplicationLag != nil {
		t.Fatalf("primary healthz: %+v", hz)
	}

	// Before the pull the follower trails; lag is whatever its tailer
	// last recorded. After the pull it reports caught-up.
	pullApply(t, pts, follower)
	_, raw = get(t, fts, "/healthz")
	hz = HealthResponse{}
	decodeInto(t, raw, &hz)
	if hz.Role != "follower" || hz.AppliedSeq != 1 {
		t.Fatalf("follower healthz: %+v", hz)
	}
	if hz.ReplicationLag == nil || *hz.ReplicationLag != 0 {
		t.Fatalf("follower lag: %+v", hz.ReplicationLag)
	}
}

// The legacy healthz contract: a standalone daemon's body carries no
// replication fields at all (old load balancers parse it unchanged).
func TestHealthzLegacyBodyWithoutReplication(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, raw := get(t, ts, "/healthz")
	for _, forbidden := range []string{"role", "appliedSeq", "replicationLag"} {
		if strings.Contains(string(raw), forbidden) {
			t.Fatalf("standalone healthz leaks %q: %s", forbidden, raw)
		}
	}
	// And the replication endpoints 404 rather than act.
	if resp, _ := get(t, ts, "/v1/replication/wal"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("wal endpoint on standalone: %d, want 404", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/v1/replication/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("promote on standalone: %d, want 404", resp.StatusCode)
	}
}

func TestPromoteFlipsFollowerToPrimary(t *testing.T) {
	_, follower, pts, fts := replicationPair(t)
	edges, paths, _, _ := fig1Wire(t)
	if resp, raw := postJSON(t, pts, "/v1/topologies", TopologyRequest{Name: "fig1", Edges: edges, Paths: paths}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, raw)
	}
	pullApply(t, pts, follower)

	resp, err := http.Post(fts.URL+"/v1/replication/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var pr PromoteResponse
	rawBody := make([]byte, 1<<12)
	n, _ := resp.Body.Read(rawBody)
	resp.Body.Close()
	decodeInto(t, rawBody[:n], &pr)
	if pr.Role != "primary" || pr.AppliedSeq != 1 {
		t.Fatalf("promote response: %+v", pr)
	}
	if follower.Role() != RolePrimary {
		t.Fatalf("role after promote: %v", follower.Role())
	}

	// The promoted shard accepts writes and journals them durably: a
	// fresh registration lands in its own WAL with the next sequence.
	if resp, raw := postJSON(t, fts, "/v1/topologies", TopologyRequest{Name: "fig2", Edges: edges, Paths: paths}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register after promote: %d %s", resp.StatusCode, raw)
	}
	if got := follower.ReplicationStore().LastSeq(); got != 2 {
		t.Fatalf("promoted WAL seq %d, want 2", got)
	}
	// Promote is idempotent.
	if got := follower.Promote(); got != RolePrimary {
		t.Fatalf("re-promote: %v", got)
	}
}

// A replicated register must reproduce the primary's digest exactly;
// a tampered doc fails the apply instead of serving silently different
// estimates.
func TestApplyReplicatedVerifiesDigest(t *testing.T) {
	edges, paths, _, _ := fig1Wire(t)
	srv := New(Config{})
	doc := store.TopologyDoc{Name: "x", Edges: edges, Paths: paths, Digest: "sha256:not-the-real-digest"}
	err := srv.Registry().ApplyReplicated(context.Background(), store.Record{Op: store.OpRegister, Seq: 1, Doc: doc})
	if err == nil {
		t.Fatal("digest mismatch accepted")
	}
	if _, gerr := srv.Registry().Get("x"); gerr == nil {
		t.Fatal("mismatched topology left registered")
	}
}

// A snapshot resync keeps every entry the snapshot carries unchanged
// registered the whole time — the same *Entry, never a 404 window —
// while it drops names the snapshot lacks and rebuilds changed ones.
func TestResetReplicatedKeepsUnchangedEntries(t *testing.T) {
	edges, paths, _, _ := fig1Wire(t)
	reg := NewRegistry(nil)
	for _, name := range []string{"kept", "dropped", "changed"} {
		if _, err := reg.Register(name, edges, paths, 0); err != nil {
			t.Fatal(err)
		}
	}
	kept, err := reg.Get("kept")
	if err != nil {
		t.Fatal(err)
	}
	doc := func(name string, alpha float64) store.TopologyDoc {
		return store.TopologyDoc{Name: name, Edges: edges, Paths: paths, Alpha: alpha, Digest: kept.Digest}
	}
	changed := doc("changed", 2*kept.Det.Alpha())
	if err := reg.ResetReplicated(context.Background(),
		[]store.TopologyDoc{doc("kept", kept.Det.Alpha()), changed, doc("added", kept.Det.Alpha())}); err != nil {
		t.Fatal(err)
	}
	if got, err := reg.Get("kept"); err != nil || got != kept {
		t.Fatalf("unchanged entry was rebuilt or dropped: %v", err)
	}
	if _, err := reg.Get("dropped"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("name missing from the snapshot survived: %v", err)
	}
	if got, err := reg.Get("changed"); err != nil || got.Det.Alpha() != changed.Alpha {
		t.Fatalf("changed entry not rebuilt: %v", err)
	}
	if _, err := reg.Get("added"); err != nil {
		t.Fatalf("new entry not registered: %v", err)
	}
	if got := reg.Names(); len(got) != 3 {
		t.Fatalf("registry holds %v after the resync", got)
	}
}
