package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fleetSeed/fleetRequests pin the fleet soak plan: every fleet shape in
// this file runs the same deterministic request stream, so their
// transcript digests are directly comparable (and pinned in
// testdata/fleet.golden).
const (
	fleetSeed     = 21
	fleetRequests = 400
)

// fleetScenarios is the fleet campaign mix: the Fig. 1 kinds all share
// one routing matrix — one placement key — so two backbone systems with
// digests of their own ride along to spread registrations over multiple
// replication groups.
func fleetScenarios(t *testing.T) []*Scenario {
	t.Helper()
	scenarios := buildKinds(t, 1, KindClean, KindStealthy, KindChosenVictim)
	for _, bb := range []struct {
		name  string
		links int
		seed  int64
	}{
		{"backbone-80", 80, 7},
		{"backbone-120", 120, 11},
	} {
		sc, err := BackboneScenario(bb.name, bb.links, bb.seed)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, sc)
	}
	return scenarios
}

// newTestFleet boots a fleet whose replication hook errors fail the
// test and whose shards close with it.
func newTestFleet(t *testing.T, groups, replicas int) *Fleet {
	t.Helper()
	f, err := NewFleet(context.Background(), FleetConfig{
		Groups:   groups,
		Replicas: replicas,
		Dir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := f.SyncErr(); err != nil {
			t.Errorf("replication sync: %v", err)
		}
		f.Close()
	})
	return f
}

// runFleetSoak registers the scenarios, drives the standard fleet load
// plan with the given worker count, and reconciles the client-side
// expectation against fleet-wide scrape sums.
func runFleetSoak(t *testing.T, f *Fleet, scenarios []*Scenario, workers int) *Transcript {
	t.Helper()
	ctx := context.Background()
	if err := f.RegisterScenarios(ctx, scenarios); err != nil {
		t.Fatal(err)
	}
	// Scrape every node directly, not through the router.
	var nodes []string
	for _, row := range f.Nodes {
		for _, node := range row {
			nodes = append(nodes, node.URL())
		}
	}
	pre := scrape(t, nodes...)
	tr, err := RunLoad(ctx, LoadConfig{
		BaseURL:   f.URL(),
		Scenarios: scenarios,
		Requests:  fleetRequests,
		Workers:   workers,
		Seed:      fleetSeed,
		Chaos:     soakChaos,
		FaultFrac: 0.08,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := tr.Expected()
	if msgs := Reconcile(e.Wants(), pre, scrape(t, nodes...)); len(msgs) != 0 || e.Mismatches != 0 {
		t.Errorf("fleet scrape does not reconcile (%d verdict mismatches): %v", e.Mismatches, msgs)
	}
	return tr
}

// TestFleetSoakShardAndWorkerInvariant is the cluster tentpole
// invariant: the transcript digest of a fixed-seed soak is byte-
// identical across {1, 5} workers × {1, 3} shards. Sharding moves each
// request to a different process, replication serves reads from
// whichever replica the router picks, and the worker pool reorders
// execution — none of it may leak into the observable transcript. The
// digest is pinned in testdata/fleet.golden (refresh with -update).
func TestFleetSoakShardAndWorkerInvariant(t *testing.T) {
	scenarios := fleetScenarios(t)
	shapes := []struct {
		groups, replicas, workers int
	}{
		{1, 1, 1},
		{1, 1, 5},
		{3, 2, 1},
		{3, 2, 5},
	}
	digests := make([]string, len(shapes))
	for i, sh := range shapes {
		t.Logf("fleet %d×%d, %d workers", sh.groups, sh.replicas, sh.workers)
		f := newTestFleet(t, sh.groups, sh.replicas)
		tr := runFleetSoak(t, f, scenarios, sh.workers)
		digests[i] = tr.Digest()
		if sh.groups > 1 {
			used := make(map[int]bool)
			for _, sc := range scenarios {
				g, ok := f.Router.Lookup(sc.Name)
				if !ok {
					t.Fatalf("no placement learned for %s", sc.Name)
				}
				used[g] = true
			}
			if len(used) < 2 {
				t.Errorf("campaign landed on %d group(s), want >= 2 (no sharding exercised)", len(used))
			}
		}
	}
	for i, d := range digests[1:] {
		if d != digests[0] {
			t.Errorf("digest diverged: shape %v = %s, shape %v = %s",
				shapes[i+1], d, shapes[0], digests[0])
		}
	}

	got := fmt.Sprintf("digest %s\n", digests[0])
	path := filepath.Join("testdata", "fleet.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("update %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("fleet transcript drifted from golden:\n got: %s\nwant: %s", got, want)
	}
}

// goldenFleetDigest reads the digest pinned by
// TestFleetSoakShardAndWorkerInvariant.
func goldenFleetDigest(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fleet.golden"))
	if err != nil {
		t.Fatalf("read fleet golden (run the invariant test with -update first): %v", err)
	}
	line := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)[0]
	return strings.TrimPrefix(line, "digest ")
}

// fleetEstimateRaw issues one deterministic estimate for sc through the
// fleet front door and returns the raw response bytes — the unit of the
// byte-identical replica contract.
func fleetEstimateRaw(t *testing.T, base string, sc *Scenario) []byte {
	t.Helper()
	rounds, err := sc.GenRounds(99, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(roundsBody(sc.Name, ys(rounds), 0))
	if err != nil {
		t.Fatal(err)
	}
	status, raw, err := NewClient(base, nil).PostRaw(context.Background(), "/v1/estimate", buf)
	if err != nil {
		t.Fatalf("estimate %s: %v", sc.Name, err)
	}
	if status != http.StatusOK {
		t.Fatalf("estimate %s: status %d: %s", sc.Name, status, raw)
	}
	return raw
}

// TestFleetMidSoakPrimaryKill partitions a replication group's primary
// away mid-soak and then crashes it for real. The soak must finish with
// the exact golden digest (reads fall over to the warm follower, whose
// responses are byte-identical), the explicit failover must promote
// that follower, and the promoted journal must account for every
// acknowledged write — zero loss — before accepting new ones.
func TestFleetMidSoakPrimaryKill(t *testing.T) {
	scenarios := fleetScenarios(t)
	f := newTestFleet(t, 3, 2)
	ctx := context.Background()
	if err := f.RegisterScenarios(ctx, scenarios); err != nil {
		t.Fatal(err)
	}

	// The Fig. 1 trio shares one placement — its group carries the bulk
	// of the traffic, so that is the primary worth killing.
	gKill, ok := f.Router.Lookup(scenarios[0].Name)
	if !ok {
		t.Fatalf("no placement for %s", scenarios[0].Name)
	}
	preKill := make(map[string][]byte, len(scenarios))
	for _, sc := range scenarios {
		preKill[sc.Name] = fleetEstimateRaw(t, f.URL(), sc)
	}

	// Partition (rather than close) during the soak: new requests to the
	// primary fail at the transport and retry on the follower, while
	// requests already in flight complete cleanly — no torn responses,
	// so the transcript digest stays exactly the no-fault golden.
	primary := f.Nodes[gKill][0]
	go func() {
		time.Sleep(30 * time.Millisecond)
		f.ShardChaos().Partition(primary.URL())
	}()
	tr, err := RunLoad(ctx, LoadConfig{
		BaseURL:   f.URL(),
		Scenarios: scenarios,
		Requests:  fleetRequests,
		Workers:   5,
		Seed:      fleetSeed,
		Chaos:     soakChaos,
		FaultFrac: 0.08,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Digest(), goldenFleetDigest(t); got != want {
		t.Errorf("digest drifted under mid-soak primary loss:\n got %s\nwant %s", got, want)
	}

	// Now the crash is real: listener closed, connections torn.
	dead := f.KillPrimary(gKill)
	if dead != primary {
		t.Fatalf("killed %s, expected boot primary %s", dead.Name, primary.Name)
	}
	if err := f.Router.Failover(gKill); err != nil {
		t.Fatal(err)
	}
	grp := f.Router.Groups()[gKill]
	if grp.PrimaryIndex() == 0 {
		t.Fatal("failover left the dead boot primary in charge")
	}
	promoted := f.Nodes[gKill][grp.PrimaryIndex()]
	if role := promoted.Server.Role(); role.String() != "primary" {
		t.Fatalf("promoted node role = %s, want primary", role)
	}

	// Zero acknowledged-write loss: every registration acked for this
	// group is a frame in the promoted journal, and every topology in
	// the fleet — including the killed group's — still serves the exact
	// bytes it served before the crash.
	placed := 0
	for _, sc := range scenarios {
		if g, ok := f.Router.Lookup(sc.Name); ok && g == gKill {
			placed++
		}
	}
	if placed == 0 {
		t.Fatal("killed group held no placements; kill test is vacuous")
	}
	if got := promoted.Store.LastSeq(); got != uint64(placed) {
		t.Errorf("promoted WAL at seq %d, want %d acked writes", got, placed)
	}
	for _, sc := range scenarios {
		if got := fleetEstimateRaw(t, f.URL(), sc); !bytes.Equal(got, preKill[sc.Name]) {
			t.Errorf("%s: post-failover estimate differs from pre-kill bytes", sc.Name)
		}
	}

	// The group must take writes again: a fresh registration through the
	// router is acknowledged and immediately servable.
	post, err := BackboneScenario("backbone-post", 160, 13)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(f.URL(), nil).Register(ctx, post.Name, post.Sys, 0); err != nil {
		t.Fatalf("post-failover register: %v", err)
	}
	fleetEstimateRaw(t, f.URL(), post)
}
