package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/detect"
	"repro/internal/forensics"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tomo"
)

// Registry errors, mapped to HTTP statuses by the handler layer.
var (
	ErrNotFound   = errors.New("serve: topology not registered")
	ErrBadRequest = errors.New("serve: bad request")
	ErrConflict   = errors.New("serve: topology name already registered")
	ErrTooLarge   = errors.New("serve: request body too large")
	// ErrStore means the attached persistence backend refused to log a
	// mutation. The mutation did NOT take effect: durability comes
	// before acknowledgement, so a registration or eviction that cannot
	// be journaled is not applied in memory either.
	ErrStore = errors.New("serve: persistence failure")
)

// Entry is one registered measurement configuration: a tomography system
// with its factorization warmed, plus the long-lived detector built on
// it. Entries are immutable after registration and shared by all request
// handlers.
type Entry struct {
	Name   string
	Sys    *tomo.System
	Det    *detect.Detector
	Digest string
	// CacheHit records whether registration reused a cached solver.
	CacheHit bool
}

// solverCache shares solvers between systems with identical routing
// matrices, keyed by tomo's R digest. The digest is the invalidation
// key: any change to the topology or path set changes R and therefore
// misses the cache, so stale solvers can never be applied. Every wire
// topology is built on tomo's sparse route, so an entry is a sparse
// Cholesky factor plus the CSR it factors — O(nnz(R) + nnz(L)), a few
// kilobytes on the committed backbone fixtures — and a re-registration
// skips ordering, factorization and the rank screen alike.
type solverCache struct {
	mu sync.Mutex
	m  map[string]tomo.Solver

	metrics *Metrics
}

// adopt installs a cached solver into sys, or builds sys's solver and
// caches the result. Reports whether the cache was hit. The lookup runs
// under a "cache.adopt" span; a miss additionally produces the
// factorization span from tomo.SolverCtx.
func (c *solverCache) adopt(ctx context.Context, digest string, sys *tomo.System) (bool, error) {
	ctx, span := obs.StartSpan(ctx, "cache.adopt")
	defer span.End()
	c.mu.Lock()
	sv, ok := c.m[digest]
	c.mu.Unlock()
	span.SetBool("hit", ok)
	if ok {
		if err := sys.AdoptSolver(sv); err != nil {
			return false, err
		}
		if c.metrics != nil {
			c.metrics.CacheHits.Add(1)
		}
		return true, nil
	}
	sv, err := sys.SolverCtx(ctx)
	if err != nil {
		return false, err
	}
	c.mu.Lock()
	c.m[digest] = sv
	c.mu.Unlock()
	if c.metrics != nil {
		c.metrics.CacheMisses.Add(1)
	}
	return false, nil
}

// Registry holds the daemon's registered topologies and the shared
// solver cache. Safe for concurrent use.
//
// With a store attached (AttachStore), every mutation is journaled —
// and, per the store's fsync policy, durable — before it becomes
// visible or is acknowledged; the WAL order matches the registry order
// because the append happens under the registry write lock.
type Registry struct {
	mu        sync.RWMutex
	entries   map[string]*Entry
	cache     *solverCache
	store     store.Backend
	forensics *forensics.Table
}

// NewRegistry creates an empty registry whose solver cache reports to
// metrics (which may be nil).
func NewRegistry(metrics *Metrics) *Registry {
	return &Registry{
		entries: make(map[string]*Entry),
		cache:   &solverCache{m: make(map[string]tomo.Solver), metrics: metrics},
	}
}

// RegisterSystem registers an already-built tomography system under
// name, precomputing (or cache-adopting) its solver and building its
// detector with threshold alpha (0 selects detect.DefaultAlpha). It
// fails with ErrConflict on a name collision and with
// tomo.ErrNotIdentifiable when the system cannot support estimation.
func (r *Registry) RegisterSystem(name string, sys *tomo.System, alpha float64) (*Entry, error) {
	return r.RegisterSystemCtx(context.Background(), name, sys, alpha)
}

// RegisterSystemCtx is RegisterSystem under a "registry.register" trace
// span, with the solver-cache lookup (and any cold factorization) as
// child spans.
func (r *Registry) RegisterSystemCtx(ctx context.Context, name string, sys *tomo.System, alpha float64) (*Entry, error) {
	return r.registerSystem(ctx, name, sys, alpha, true, nil)
}

// wireShape carries a registration's original wire-format edges and
// paths so the journal can persist them verbatim instead of re-deriving
// them from the built system (the derivation walks every link and path
// node under the registry lock — measurable register latency).
type wireShape struct {
	edges, paths [][]string
}

// registerSystem is the shared registration core. With persist set and
// a store attached, the mutation is journaled under the registry lock
// before it becomes visible; Restore passes persist=false because the
// records being applied came from the journal. wire, when non-nil, is
// the request's own edge/path serialization, reused for the journal
// record (it is exactly what docFromSystem would rebuild: node names in
// link insertion order, paths as node walks).
func (r *Registry) registerSystem(ctx context.Context, name string, sys *tomo.System, alpha float64, persist bool, wire *wireShape) (*Entry, error) {
	ctx, span := obs.StartSpan(ctx, "registry.register")
	defer span.End()
	span.SetAttr("topology", name)
	if name == "" {
		return nil, fmt.Errorf("%w: empty topology name", ErrBadRequest)
	}
	if sys == nil {
		return nil, fmt.Errorf("%w: nil system", ErrBadRequest)
	}
	digest := sys.Digest()
	hit, err := r.cache.adopt(ctx, digest, sys)
	if err != nil {
		return nil, err
	}
	det, err := detect.New(sys, alpha)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	r.mu.RLock()
	ft := r.forensics
	r.mu.RUnlock()
	if ft != nil {
		// Bind the topology's forensic observatory (epoch-bumping when a
		// re-registration changed the routing matrix) and feed it every
		// successful Inspect. Installed before the entry is published, so
		// no handler can observe an unwired detector.
		o := ft.Bind(name, digest, sys.CSR(), det.Alpha())
		det.SetObserver(o.IngestReport)
	}
	entry := &Entry{Name: name, Sys: sys, Det: det, Digest: digest, CacheHit: hit}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.entries[name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrConflict, name)
	}
	if r.store != nil && persist {
		var doc store.TopologyDoc
		if wire != nil {
			doc = store.TopologyDoc{Name: name, Edges: wire.edges, Paths: wire.paths, Alpha: det.Alpha(), Digest: digest}
		} else {
			var err error
			doc, err = docFromSystem(name, sys, det.Alpha(), digest)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
		}
		if err := r.store.AppendRegister(doc); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrStore, err)
		}
	}
	r.entries[name] = entry
	return entry, nil
}

// Register builds a topology from named edges and node-name paths (the
// wire format of POST /v1/topologies) and registers it. Node names are
// created on first mention in an edge; paths must walk existing links.
func (r *Registry) Register(name string, edges [][]string, paths [][]string, alpha float64) (*Entry, error) {
	return r.RegisterCtx(context.Background(), name, edges, paths, alpha)
}

// RegisterCtx is Register with trace propagation into the registration
// spans.
func (r *Registry) RegisterCtx(ctx context.Context, name string, edges [][]string, paths [][]string, alpha float64) (*Entry, error) {
	sys, err := buildWireSystem(edges, paths)
	if err != nil {
		return nil, err
	}
	return r.registerSystem(ctx, name, sys, alpha, true, &wireShape{edges: edges, paths: paths})
}

// buildWireSystem assembles a tomography system from the wire format:
// named edges and node-name walks. Every served topology — registered,
// recovered from the WAL or replayed by a follower — is built on the
// sparse route, whatever its size: its solver is a sparse Cholesky
// factor, so estimates, batches and session path mutations never touch
// a dense array.
func buildWireSystem(edges [][]string, paths [][]string) (*tomo.System, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("%w: no edges", ErrBadRequest)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%w: no paths", ErrBadRequest)
	}
	g := graph.New()
	nodes := make(map[string]graph.NodeID)
	node := func(n string) (graph.NodeID, error) {
		if n == "" {
			return 0, fmt.Errorf("%w: empty node name", ErrBadRequest)
		}
		if id, ok := nodes[n]; ok {
			return id, nil
		}
		id := g.AddNode(n)
		nodes[n] = id
		return id, nil
	}
	for i, e := range edges {
		if len(e) != 2 {
			return nil, fmt.Errorf("%w: edge %d has %d endpoints, want 2", ErrBadRequest, i, len(e))
		}
		a, err := node(e[0])
		if err != nil {
			return nil, err
		}
		b, err := node(e[1])
		if err != nil {
			return nil, err
		}
		if _, err := g.AddLink(a, b); err != nil {
			return nil, fmt.Errorf("%w: edge %d (%s–%s): %v", ErrBadRequest, i, e[0], e[1], err)
		}
	}
	walked := make([]graph.Path, 0, len(paths))
	for pi, names := range paths {
		if len(names) < 2 {
			return nil, fmt.Errorf("%w: path %d has %d nodes, want ≥ 2", ErrBadRequest, pi, len(names))
		}
		var p graph.Path
		for i, n := range names {
			v, ok := g.NodeByName(n)
			if !ok {
				return nil, fmt.Errorf("%w: path %d: unknown node %q", ErrBadRequest, pi, n)
			}
			p.Nodes = append(p.Nodes, v)
			if i > 0 {
				l, ok := g.LinkBetween(p.Nodes[i-1], v)
				if !ok {
					return nil, fmt.Errorf("%w: path %d: no link %q–%q", ErrBadRequest, pi, names[i-1], n)
				}
				p.Links = append(p.Links, l)
			}
		}
		walked = append(walked, p)
	}
	sys, err := tomo.NewSparseSystem(g, walked)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return sys, nil
}

// AttachForensics installs the forensic observatory table: from this
// call on, every registration binds its topology's observatory and
// wires the detector observer into it. Attach before serving (serve.New
// does); registrations that ran before the attach are not retrofitted.
func (r *Registry) AttachForensics(t *forensics.Table) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.forensics = t
}

// AttachStore installs the persistence backend. From this call on,
// every successful registration and eviction is journaled before it is
// applied or acknowledged. Attach after Restore, never before: the
// restore path must not re-journal the records it is replaying.
func (r *Registry) AttachStore(b store.Backend) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = b
}

// Restore registers recovered topology documents without journaling
// them, verifying that each rebuilt system reproduces the digest
// recorded at original registration time — a corrupt or hand-edited
// document fails loudly here rather than silently serving a different
// routing matrix. Returns the number of topologies restored.
func (r *Registry) Restore(ctx context.Context, docs []store.TopologyDoc) (int, error) {
	ctx, span := obs.StartSpan(ctx, "registry.restore")
	defer span.End()
	for i, doc := range docs {
		sys, err := buildWireSystem(doc.Edges, doc.Paths)
		if err != nil {
			return i, fmt.Errorf("serve: restore %q: %w", doc.Name, err)
		}
		entry, err := r.registerSystem(ctx, doc.Name, sys, doc.Alpha, false, nil)
		if err != nil {
			return i, fmt.Errorf("serve: restore %q: %w", doc.Name, err)
		}
		if doc.Digest != "" && entry.Digest != doc.Digest {
			return i, fmt.Errorf("serve: restore %q: rebuilt routing matrix digest %s, journal recorded %s",
				doc.Name, entry.Digest, doc.Digest)
		}
	}
	span.SetInt("topologies", len(docs))
	return len(docs), nil
}

// DocFromSystem converts a registered system back into its persisted
// wire form: named edges in link order and node-name walks in path
// order. The round trip doc → buildWireSystem reproduces the routing
// matrix exactly (same digest), which Restore verifies.
func DocFromSystem(name string, sys *tomo.System, alpha float64) (store.TopologyDoc, error) {
	return docFromSystem(name, sys, alpha, sys.Digest())
}

// WireDigest computes the routing-matrix digest of a wire-format
// topology without registering it — the key a cluster router hashes to
// place a registration on a replication group. It is byte-identical to
// the digest the receiving registry will record for the same edges and
// paths, so placement and storage agree by construction.
func WireDigest(edges, paths [][]string) (string, error) {
	sys, err := buildWireSystem(edges, paths)
	if err != nil {
		return "", err
	}
	return sys.Digest(), nil
}

// docFromSystem is DocFromSystem with the digest supplied by a caller
// that already computed it (the journaled register path runs under the
// registry lock; recomputing the SHA-256 there is pure latency).
func docFromSystem(name string, sys *tomo.System, alpha float64, digest string) (store.TopologyDoc, error) {
	g := sys.Graph()
	links := g.Links()
	doc := store.TopologyDoc{
		Name: name, Alpha: alpha, Digest: digest,
		Edges: make([][]string, 0, len(links)),
		Paths: make([][]string, 0, len(sys.Paths())),
	}
	nodeName := func(v graph.NodeID) (string, error) {
		n, err := g.NodeName(v)
		if err != nil {
			return "", fmt.Errorf("serve: doc from system: %w", err)
		}
		return n, nil
	}
	for _, l := range links {
		a, err := nodeName(l.A)
		if err != nil {
			return doc, err
		}
		b, err := nodeName(l.B)
		if err != nil {
			return doc, err
		}
		doc.Edges = append(doc.Edges, []string{a, b})
	}
	for _, p := range sys.Paths() {
		walk := make([]string, 0, len(p.Nodes))
		for _, v := range p.Nodes {
			n, err := nodeName(v)
			if err != nil {
				return doc, err
			}
			walk = append(walk, n)
		}
		doc.Paths = append(doc.Paths, walk)
	}
	return doc, nil
}

// Evict removes the entry registered under name and returns it, or
// ErrNotFound. Entries are immutable and shared, so handlers holding the
// entry keep serving their in-flight requests; only new lookups miss.
// The solver cache deliberately keeps the factorization: it is keyed by
// the routing-matrix digest, not the name, so a re-registration of the
// same configuration stays warm and a different one can never alias it.
// With a store attached the eviction is journaled first; a journal
// failure leaves the entry registered (and the error tells the client
// the eviction did not happen). The topology's forensic observatory is
// unbound with the entry — a daemon churning through evict/re-register
// cycles must not leak observatory state, and a later registration
// under the same name starts a fresh observatory at epoch zero.
func (r *Registry) Evict(name string) (*Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if r.store != nil {
		if err := r.store.AppendEvict(name); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrStore, err)
		}
	}
	delete(r.entries, name)
	if r.forensics != nil {
		r.forensics.Unbind(name)
	}
	return e, nil
}

// Get returns the entry registered under name.
func (r *Registry) Get(name string) (*Entry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e, nil
}

// Names returns the registered topology names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered topologies.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}
