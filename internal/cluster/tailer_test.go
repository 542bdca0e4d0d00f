package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/store"
)

// newReplShard boots one shard with a durable store in the given
// replication role, mirroring the fleet boot sequence.
func newReplShard(t *testing.T, role serve.Role) *testShard {
	t.Helper()
	st, err := store.Open(context.Background(), t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{RequestTimeout: -1})
	if role == serve.RolePrimary {
		srv.Registry().AttachStore(st)
	}
	srv.EnableReplication(st, role)
	sh := &testShard{srv: srv, st: st, ts: httptest.NewServer(srv.Handler())}
	t.Cleanup(sh.ts.Close)
	t.Cleanup(func() { sh.st.Close() })
	return sh
}

// stepUntilQuiescent drives the tailer until a pull applies nothing.
func stepUntilQuiescent(t *testing.T, tail *cluster.Tailer) {
	t.Helper()
	for {
		n, err := tail.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return
		}
	}
}

func shardTopologies(t *testing.T, sh *testShard) []string {
	t.Helper()
	_, raw := doReq(t, http.MethodGet, sh.ts.URL+"/healthz", nil)
	var hz serve.HealthResponse
	if err := json.Unmarshal(raw, &hz); err != nil {
		t.Fatal(err)
	}
	return hz.Topologies
}

// A stale ex-primary rejoining as a follower after a failover it missed
// is AHEAD of its new primary: the tail pull must force a full-state
// resync that discards the diverged tail, instead of reporting lag 0
// while the journals silently fork. (Simulated by tailing primary A to
// seq 3, then re-pointing the follower at primary B, which is at seq 1
// with a different history.)
func TestTailerDivergenceForcesResync(t *testing.T) {
	oldPrimary := newReplShard(t, serve.RolePrimary)
	newPrimary := newReplShard(t, serve.RolePrimary)
	follower := newReplShard(t, serve.RoleFollower)

	for k := 1; k <= 3; k++ {
		if status, raw := postJSON(t, oldPrimary.ts.URL, "/v1/topologies", chainReq(node(k)+"-old", k)); status != http.StatusCreated {
			t.Fatalf("register on old primary: %d %s", status, raw)
		}
	}
	if status, raw := postJSON(t, newPrimary.ts.URL, "/v1/topologies", chainReq("survivor", 4)); status != http.StatusCreated {
		t.Fatalf("register on new primary: %d %s", status, raw)
	}

	source := oldPrimary.ts.URL
	tail := &cluster.Tailer{Server: follower.srv, Source: func() string { return source }}
	stepUntilQuiescent(t, tail)
	if got := follower.st.LastSeq(); got != 3 {
		t.Fatalf("follower at seq %d after tailing old primary, want 3", got)
	}

	// The old primary dies and the follower is re-pointed at the new
	// one, whose history it has never seen and whose sequence it is
	// ahead of.
	source = newPrimary.ts.URL
	applied, err := tail.Step(context.Background())
	if err != nil {
		t.Fatalf("divergence pull: %v", err)
	}
	if applied != 1 {
		t.Fatalf("divergence resync applied %d docs, want 1", applied)
	}
	if got, want := follower.st.LastSeq(), newPrimary.st.LastSeq(); got != want {
		t.Fatalf("follower seq %d != new primary %d", got, want)
	}
	if got := follower.srv.ReplicationLag(); got != 0 {
		t.Fatalf("lag %d after resync, want 0", got)
	}
	got := shardTopologies(t, follower)
	if len(got) != 1 || got[0] != "survivor" {
		t.Fatalf("follower topologies %v, want [survivor]", got)
	}

	// Incremental tailing resumes against the new history.
	if status, raw := postJSON(t, newPrimary.ts.URL, "/v1/topologies", chainReq("post", 5)); status != http.StatusCreated {
		t.Fatalf("post-resync register: %d %s", status, raw)
	}
	stepUntilQuiescent(t, tail)
	if got := follower.st.LastSeq(); got != 2 {
		t.Fatalf("follower at seq %d after post-resync tail, want 2", got)
	}
	if status, _ := estimateXHat(t, follower.ts.URL, "post", 5); status != http.StatusOK {
		t.Fatalf("follower estimate for post-resync topology: %d", status)
	}
}

// A shipped batch is one journal write and one fsync on the follower,
// not one per record, and the follower's WAL is the primary's byte for
// byte — the frames are shipped verbatim, not re-encoded.
func TestTailerBatchIsOneFsync(t *testing.T) {
	primary := newReplShard(t, serve.RolePrimary)
	srv := serve.New(serve.Config{RequestTimeout: -1})
	m := store.NewMetrics(srv.Metrics().Registry(), nil)
	st, err := store.Open(context.Background(), t.TempDir(), store.Options{Fsync: store.FsyncAlways, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv.EnableReplication(st, serve.RoleFollower)

	for k := 1; k <= 5; k++ {
		if status, raw := postJSON(t, primary.ts.URL, "/v1/topologies", chainReq(fmt.Sprintf("t%d", k), k)); status != http.StatusCreated {
			t.Fatalf("register t%d: %d %s", k, status, raw)
		}
	}
	if status, raw := doReq(t, http.MethodDelete, primary.ts.URL+"/v1/topologies/t2", nil); status != http.StatusOK {
		t.Fatalf("evict t2: %d %s", status, raw)
	}

	tail := &cluster.Tailer{Server: srv, Source: func() string { return primary.ts.URL }}
	fsyncs := m.FsyncLatency.Count()
	n, err := tail.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("step applied %d records, want 6", n)
	}
	if got := m.FsyncLatency.Count() - fsyncs; got != 1 {
		t.Fatalf("a %d-record batch cost %d follower fsyncs, want 1", n, got)
	}
	pwal, err := os.ReadFile(filepath.Join(primary.st.Dir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	fwal, err := os.ReadFile(filepath.Join(st.Dir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pwal, fwal) {
		t.Fatalf("follower WAL (%d bytes) differs from the primary's (%d bytes)", len(fwal), len(pwal))
	}
}
