// Package cluster shards tomographyd horizontally: topologies are
// placed by consistent hash of their routing-matrix digest onto a
// replication group (one primary plus R followers), the primary's
// checksummed WAL is shipped to followers over the daemon's replication
// endpoint, and a thin HTTP router spreads estimate/inspect/session
// traffic across replicas while forwarding registry mutations to the
// owning group's primary.
//
// The design leans on two invariants the lower layers already provide:
//
//   - WAL frames ship verbatim. A follower journals the primary's own
//     frame bytes, sequence numbers and checksums included, so a
//     caught-up follower's journal is byte-identical to its primary's —
//     failover promotes a warm replica whose registry digests verify,
//     it never replays divergent state.
//   - Registry state is digest-verified. A replicated register rebuilds
//     the routing matrix from the shipped doc and must reproduce the
//     digest the primary journaled, so a follower can serve estimates
//     the moment it applies a record, with no extra handshake.
//
// Placement, routing, and failover are all deterministic given the
// fleet state, which is what lets the e2e fleet soak assert a
// byte-identical transcript digest across worker and shard counts.
package cluster

import (
	"fmt"
	"sync/atomic"
)

// Node is one tomographyd process in the fleet, addressed by base URL.
// Down is a routing hint, not ground truth: the router marks a node
// down on transport failure and skips it until something marks it up
// again (an operator, a health prober, or a test healing a partition).
type Node struct {
	// Name identifies the node in logs and cluster health ("g0/n1").
	Name string
	// URL is the node's base URL ("http://127.0.0.1:8723").
	URL string

	down atomic.Bool
}

// Down reports whether the node is currently routed around.
func (n *Node) Down() bool { return n.down.Load() }

// MarkDown removes the node from routing until MarkUp.
func (n *Node) MarkDown() { n.down.Store(true) }

// MarkUp returns the node to routing.
func (n *Node) MarkUp() { n.down.Store(false) }

// Group is one replication group: a primary that owns the mutation
// order for every topology placed on the group, and followers tailing
// its WAL. The primary index is atomic so failover flips it without
// blocking in-flight reads; the read cursor round-robins read traffic
// across all replicas.
type Group struct {
	// Index is the group's position on the ring.
	Index int

	nodes   []*Node
	primary atomic.Int32
	cursor  atomic.Uint32
}

// NewGroup builds a group from node base URLs; the first URL starts as
// primary, matching the order a fleet is booted in.
func NewGroup(index int, urls []string) (*Group, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("cluster: group %d has no nodes", index)
	}
	g := &Group{Index: index, nodes: make([]*Node, len(urls))}
	for i, u := range urls {
		if u == "" {
			return nil, fmt.Errorf("cluster: group %d node %d has an empty URL", index, i)
		}
		g.nodes[i] = &Node{Name: fmt.Sprintf("g%d/n%d", index, i), URL: u}
	}
	return g, nil
}

// Nodes returns the group's replicas in boot order.
func (g *Group) Nodes() []*Node { return g.nodes }

// Replicas is the number of nodes in the group.
func (g *Group) Replicas() int { return len(g.nodes) }

// Primary returns the current primary node.
func (g *Group) Primary() *Node { return g.nodes[g.primary.Load()] }

// PrimaryIndex returns the current primary's index.
func (g *Group) PrimaryIndex() int { return int(g.primary.Load()) }

// SetPrimary flips the primary to node i (failover).
func (g *Group) SetPrimary(i int) {
	if i < 0 || i >= len(g.nodes) {
		panic(fmt.Sprintf("cluster: group %d has no node %d", g.Index, i))
	}
	g.primary.Store(int32(i))
}

// readOrder returns the replicas starting at the round-robin cursor, so
// consecutive reads land on different nodes while a retry loop still
// visits every replica exactly once.
func (g *Group) readOrder() []*Node {
	start := int(g.cursor.Add(1)-1) % len(g.nodes)
	out := make([]*Node, 0, len(g.nodes))
	for i := 0; i < len(g.nodes); i++ {
		out = append(out, g.nodes[(start+i)%len(g.nodes)])
	}
	return out
}

// nextUp returns the index of the first up node after `after` in ring
// order, excluding `after` itself — the failover candidate order.
func (g *Group) nextUp(after int) (int, bool) {
	for i := 1; i < len(g.nodes); i++ {
		idx := (after + i) % len(g.nodes)
		if !g.nodes[idx].Down() {
			return idx, true
		}
	}
	return 0, false
}
