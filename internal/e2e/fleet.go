package e2e

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"

	"repro/internal/cluster"
	"repro/internal/detect"
	"repro/internal/mc"
	"repro/internal/netsim"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/tomo"
	"repro/internal/topo"
)

// FleetConfig shapes an in-process sharded cluster.
type FleetConfig struct {
	// Groups is the number of replication groups (shards).
	Groups int
	// Replicas is nodes per group: one primary plus Replicas-1 followers.
	Replicas int
	// Vnodes is the placement-ring density (0 = cluster.DefaultVnodes).
	Vnodes int
	// Serve configures every shard. A zero RequestTimeout is replaced by
	// -1 (no deadline): fleet soaks assert deterministic transcripts, and
	// with no deadline the worker pool queues instead of shedding.
	Serve serve.Config
	// Dir is the base directory for the per-node durable stores
	// (Dir/g<G>/n<N>).
	Dir string
}

// FleetNode is one shard process: a real server over loopback with its
// own journal, exactly what one tomographyd -role=... daemon runs.
type FleetNode struct {
	Name   string
	Server *serve.Server
	Store  *store.Store
	HTTP   *httptest.Server
	// Tailer is nil on each group's boot primary.
	Tailer *cluster.Tailer
}

// URL is the node's loopback base URL.
func (n *FleetNode) URL() string { return n.HTTP.URL }

// Fleet is a running sharded cluster behind a router, with synchronous
// WAL shipping: the router's AfterWrite hook steps every follower
// tailer before a write is acknowledged, so replication order is a pure
// function of the write order and the whole fleet is as deterministic
// as a single harness. Shard-facing traffic goes through a Chaos
// transport so tests can partition whole shards mid-soak.
type Fleet struct {
	Router *cluster.Router
	HTTP   *httptest.Server
	// Nodes is indexed [group][replica] in boot order, matching the
	// router's group node order.
	Nodes [][]*FleetNode

	chaos *Chaos

	mu      sync.Mutex
	syncErr error
	closed  bool
}

// NewFleet boots cfg.Groups × cfg.Replicas shards and a router over
// them. Callers own Close.
func NewFleet(ctx context.Context, cfg FleetConfig) (*Fleet, error) {
	if cfg.Groups <= 0 || cfg.Replicas <= 0 {
		return nil, fmt.Errorf("e2e: fleet needs positive groups and replicas, got %d×%d", cfg.Groups, cfg.Replicas)
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("e2e: fleet needs a store directory")
	}
	if cfg.Serve.RequestTimeout == 0 {
		cfg.Serve.RequestTimeout = -1
	}
	chaos, err := NewChaos(ChaosConfig{}, nil)
	if err != nil {
		return nil, err
	}
	f := &Fleet{chaos: chaos}

	urls := make([][]string, cfg.Groups)
	for g := 0; g < cfg.Groups; g++ {
		var row []*FleetNode
		for i := 0; i < cfg.Replicas; i++ {
			node, err := newFleetNode(ctx, cfg, g, i)
			if err != nil {
				f.Close()
				return nil, err
			}
			row = append(row, node)
			urls[g] = append(urls[g], node.URL())
		}
		f.Nodes = append(f.Nodes, row)
	}

	rt, err := cluster.New(cluster.Config{
		Groups: urls,
		Vnodes: cfg.Vnodes,
		Client: chaos.Client(),
		Logger: cfg.Serve.Logger,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	f.Router = rt
	for g, row := range f.Nodes {
		grp := rt.Groups()[g]
		for _, node := range row[1:] {
			node.Tailer = &cluster.Tailer{
				Server: node.Server,
				Source: func() string { return grp.Primary().URL },
				HTTP:   chaos.Client(),
				Logger: cfg.Serve.Logger,
			}
		}
	}
	rt.AfterWrite = func(g int) {
		if err := f.SyncGroup(context.Background(), g); err != nil {
			f.mu.Lock()
			if f.syncErr == nil {
				f.syncErr = err
			}
			f.mu.Unlock()
		}
	}
	f.HTTP = httptest.NewServer(rt)
	return f, nil
}

// newFleetNode opens one shard: store, warm restore, role wiring — the
// same boot sequence cmd/tomographyd runs under -data-dir plus -role.
func newFleetNode(ctx context.Context, cfg FleetConfig, g, i int) (*FleetNode, error) {
	name := fmt.Sprintf("g%d/n%d", g, i)
	dir := filepath.Join(cfg.Dir, fmt.Sprintf("g%d", g), fmt.Sprintf("n%d", i))
	srv := serve.New(cfg.Serve)
	st, err := store.Open(ctx, dir, store.Options{
		Metrics: store.NewMetrics(srv.Metrics().Registry(), func() float64 {
			return float64(store.DirSize(dir))
		}),
		Logger: cfg.Serve.Logger,
	})
	if err != nil {
		return nil, fmt.Errorf("e2e: fleet node %s: %w", name, err)
	}
	if _, err := srv.Registry().Restore(ctx, st.Recovered().Topologies); err != nil {
		st.Close()
		return nil, fmt.Errorf("e2e: fleet node %s warm start: %w", name, err)
	}
	if i == 0 {
		srv.Registry().AttachStore(st)
		srv.EnableReplication(st, serve.RolePrimary)
	} else {
		// Followers keep the store detached from the registry: the tailer
		// is the journal's only writer until promotion.
		srv.EnableReplication(st, serve.RoleFollower)
	}
	return &FleetNode{Name: name, Server: srv, Store: st, HTTP: httptest.NewServer(srv.Handler())}, nil
}

// URL is the router's base URL — the fleet's front door.
func (f *Fleet) URL() string { return f.HTTP.URL }

// ShardChaos is the chaos transport between the router and the shards;
// Partition/Heal on it cuts whole shards off mid-soak.
func (f *Fleet) ShardChaos() *Chaos { return f.chaos }

// SyncGroup steps every follower tailer of group g until quiescent.
func (f *Fleet) SyncGroup(ctx context.Context, g int) error {
	for _, node := range f.Nodes[g][1:] {
		if node.Tailer == nil {
			continue
		}
		for {
			n, err := node.Tailer.Step(ctx)
			if err != nil {
				return fmt.Errorf("e2e: sync %s: %w", node.Name, err)
			}
			if n == 0 {
				break
			}
		}
	}
	return nil
}

// SyncAll steps every follower tailer in the fleet until quiescent.
func (f *Fleet) SyncAll(ctx context.Context) error {
	for g := range f.Nodes {
		if err := f.SyncGroup(ctx, g); err != nil {
			return err
		}
	}
	return nil
}

// SyncErr returns the first replication error recorded by the
// AfterWrite hook (nil on a healthy run).
func (f *Fleet) SyncErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncErr
}

// KillPrimary crashes group g's current primary — connections torn,
// listener closed, no WAL flush beyond what each acknowledged write
// already forced — and returns the dead node. The caller decides
// whether failover is driven explicitly (Router.Failover) or left to
// the next write's transparent path.
func (f *Fleet) KillPrimary(g int) *FleetNode {
	grp := f.Router.Groups()[g]
	node := f.Nodes[g][grp.PrimaryIndex()]
	node.HTTP.CloseClientConnections()
	node.HTTP.Close()
	return node
}

// RegisterScenarios registers every scenario through the router with a
// plain (chaos-free) client, so fleet setup mirrors newTestHarness.
func (f *Fleet) RegisterScenarios(ctx context.Context, scenarios []*Scenario) error {
	c := NewClient(f.URL(), nil)
	for _, sc := range scenarios {
		if _, err := c.Register(ctx, sc.Name, sc.Sys, 0); err != nil {
			return err
		}
	}
	return f.SyncErr()
}

// Close shuts the router and every shard down (idempotent).
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	if f.HTTP != nil {
		f.HTTP.Close()
	}
	for _, row := range f.Nodes {
		for _, node := range row {
			node.HTTP.Close()
			node.Store.Close()
		}
	}
}

// BackboneScenario builds a clean (attack-free) campaign over a
// deterministic backbone topology of roughly `links` links. Every
// Fig. 1 scenario shares one routing matrix — and therefore one
// placement key — so fleet soaks use backbone scenarios to give each
// replication group its own digest and spread the campaign across
// shards.
func BackboneScenario(name string, links int, seed int64) (*Scenario, error) {
	g, err := topo.Backbone(seed, links)
	if err != nil {
		return nil, fmt.Errorf("e2e: backbone scenario %s: %w", name, err)
	}
	paths, err := topo.BackbonePaths(g, links/10, seed)
	if err != nil {
		return nil, fmt.Errorf("e2e: backbone scenario %s paths: %w", name, err)
	}
	sys, err := tomo.NewSystem(g, paths)
	if err != nil {
		return nil, fmt.Errorf("e2e: backbone scenario %s system: %w", name, err)
	}
	det, err := detect.New(sys, 0)
	if err != nil {
		return nil, fmt.Errorf("e2e: backbone scenario %s detector: %w", name, err)
	}
	return &Scenario{
		Kind:  KindClean,
		Name:  name,
		Sys:   sys,
		TrueX: netsim.RoutineDelays(g, mc.RNG(seed, 0)),
		Det:   det,
	}, nil
}
