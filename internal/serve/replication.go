package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/store"
)

// This file is the daemon's replication surface: role awareness
// (primary vs follower), the WAL-shipping endpoint a follower tails,
// and the promote endpoint failover flips. The cluster package drives
// these; a standalone daemon (RoleNone) never sees any of it and keeps
// its exact pre-cluster behavior — including the legacy /healthz body,
// whose replication fields are omitted when empty.

// ErrFollower means a registry mutation was sent to a follower shard.
// Followers serve reads (estimate, inspect, forensics, sessions) but
// reject writes — the primary's WAL is the single mutation order, and
// a follower write would fork it. Mapped to 421 Misdirected Request so
// a router can distinguish "re-send to the primary" from a client
// error.
var ErrFollower = errors.New("serve: shard is a replication follower")

// Role is a shard's replication role.
type Role int32

const (
	// RoleNone is a standalone daemon: no replication machinery at all.
	RoleNone Role = iota
	// RolePrimary accepts writes, journals them, and serves the WAL to
	// tailing followers.
	RolePrimary
	// RoleFollower applies shipped WAL records and rejects direct
	// registry mutations until promoted.
	RoleFollower
)

// String renders the role as it appears in /healthz.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleFollower:
		return "follower"
	}
	return "standalone"
}

// EnableReplication puts the server into a replication role backed by
// st — the store whose WAL is shipped (primary) or mirrored (follower).
// Call once, before serving. A primary should also AttachStore the same
// store on the registry (the daemon's existing warm-start sequence); a
// follower must NOT, because its store is written by the replication
// tailer, not by handlers — Promote wires the registry to the store at
// failover time.
//
// Registers the replication gauge family on the server's metrics:
//
//	tomographyd_replication_role         0 standalone, 1 primary, 2 follower
//	tomographyd_replication_applied_seq  last WAL sequence applied locally
//	tomographyd_replication_lag          records behind the primary (followers)
func (s *Server) EnableReplication(st *store.Store, role Role) {
	if st == nil {
		panic("serve: EnableReplication with a nil store")
	}
	s.replStore = st
	s.role.Store(int32(role))
	reg := s.metrics.Registry()
	reg.GaugeFunc("tomographyd_replication_role",
		"Replication role: 0 standalone, 1 primary, 2 follower.",
		func() float64 { return float64(s.role.Load()) })
	reg.GaugeFunc("tomographyd_replication_applied_seq",
		"Last WAL sequence applied on this shard.",
		func() float64 { return float64(st.LastSeq()) })
	reg.GaugeFunc("tomographyd_replication_lag",
		"WAL records this follower is behind its primary (0 on a primary).",
		func() float64 { return float64(s.replLag.Load()) })
}

// Role returns the server's replication role.
func (s *Server) Role() Role { return Role(s.role.Load()) }

// ReplicationStore returns the store backing replication (nil for a
// standalone server).
func (s *Server) ReplicationStore() *store.Store { return s.replStore }

// SetReplicationLag records how many WAL records this follower is
// behind its primary — the tailer updates it after every pull, and
// /healthz plus the lag gauge report it.
func (s *Server) SetReplicationLag(lag uint64) { s.replLag.Store(lag) }

// ReplicationLag returns the last recorded replication lag.
func (s *Server) ReplicationLag() uint64 { return s.replLag.Load() }

// Promote flips a follower to primary: from this call on the shard
// accepts registry mutations and journals them to the store it was
// tailing into. The registry is attached to the store here — not
// before — so the mutation journal stays single-writer (tailer until
// promote, handlers after). Promoting a primary or standalone server
// is a no-op reporting the current role.
func (s *Server) Promote() Role {
	if !s.role.CompareAndSwap(int32(RoleFollower), int32(RolePrimary)) {
		return s.Role()
	}
	s.reg.AttachStore(s.replStore)
	s.replLag.Store(0)
	s.metrics.Promotions.Add(1)
	s.log.Info("shard promoted to primary", "applied_seq", s.replStore.LastSeq())
	return RolePrimary
}

// rejectFollower answers a registry mutation with 421 when this shard
// is a follower. Returns true when the request was rejected.
func (s *Server) rejectFollower(w http.ResponseWriter) bool {
	if s.Role() != RoleFollower {
		return false
	}
	s.fail(w, fmt.Errorf("%w: send writes to the primary", ErrFollower))
	return true
}

// --- Replication wire types ---------------------------------------------

// ReplicationBatch is the body of GET /v1/replication/wal: either the
// primary's WAL frames after the follower's cursor, verbatim (base64 in
// the JSON body; the follower applies them with store.ApplyFrames), or
// (resync) the full state when compaction folded the requested tail
// away.
type ReplicationBatch struct {
	Resync    bool                `json:"resync,omitempty"`
	Docs      []store.TopologyDoc `json:"docs,omitempty"`
	ResyncSeq uint64              `json:"resyncSeq,omitempty"`
	Frames    []byte              `json:"frames,omitempty"`
	LastSeq   uint64              `json:"lastSeq"`
}

// PromoteResponse is the body of POST /v1/replication/promote.
type PromoteResponse struct {
	Role       string `json:"role"`
	AppliedSeq uint64 `json:"appliedSeq"`
}

// --- Handlers -----------------------------------------------------------

// handleReplicationWAL serves the journal tail after ?from=N — the pull
// a tailing follower repeats. Like /debug/*, the replication endpoints
// are deliberately uninstrumented: replication traffic is fleet
// plumbing, and counting it in tomographyd_requests_total would break
// the load generator's exact scrape reconciliation. Dedicated counters
// (tomographyd_replication_pulls_total, ..._promotions_total) track it
// instead.
func (s *Server) handleReplicationWAL(w http.ResponseWriter, req *http.Request) {
	if s.replStore == nil {
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: "serve: replication not enabled"})
		return
	}
	var from uint64
	if q := req.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("serve: bad from %q", q)})
			return
		}
		from = v
	}
	res, err := s.replStore.Since(from)
	if err != nil {
		s.writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	s.metrics.ReplicationPulls.Add(1)
	s.writeJSON(w, http.StatusOK, ReplicationBatch{
		Resync:    res.Resync,
		Docs:      res.Docs,
		ResyncSeq: res.ResyncSeq,
		Frames:    res.Frames,
		LastSeq:   res.LastSeq,
	})
}

// handleReplicationPromote flips a follower to primary (idempotent).
func (s *Server) handleReplicationPromote(w http.ResponseWriter, _ *http.Request) {
	if s.replStore == nil {
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: "serve: replication not enabled"})
		return
	}
	role := s.Promote()
	s.writeJSON(w, http.StatusOK, PromoteResponse{Role: role.String(), AppliedSeq: s.replStore.LastSeq()})
}

// --- Registry replication apply -----------------------------------------

// ApplyReplicated folds one shipped WAL record into the registry
// without journaling it (store.ApplyFrames wrote the record's frame
// before handing it here and fsyncs once the batch is through,
// mirroring the primary's journal-then-apply order). Register records
// rebuild the system from the persisted wire shape and verify the
// digest recorded by the primary — a shard whose rebuilt routing matrix
// diverges fails loudly instead of serving different estimates than the
// primary acknowledged.
func (r *Registry) ApplyReplicated(ctx context.Context, rec store.Record) error {
	switch rec.Op {
	case store.OpRegister:
		sys, err := buildWireSystem(rec.Doc.Edges, rec.Doc.Paths)
		if err != nil {
			return fmt.Errorf("serve: replicate %q: %w", rec.Doc.Name, err)
		}
		entry, err := r.registerSystem(ctx, rec.Doc.Name, sys, rec.Doc.Alpha, false,
			&wireShape{edges: rec.Doc.Edges, paths: rec.Doc.Paths})
		if err != nil {
			return fmt.Errorf("serve: replicate %q: %w", rec.Doc.Name, err)
		}
		if rec.Doc.Digest != "" && entry.Digest != rec.Doc.Digest {
			r.evictReplicated(rec.Doc.Name)
			return fmt.Errorf("serve: replicate %q: rebuilt digest %s, primary journaled %s",
				rec.Doc.Name, entry.Digest, rec.Doc.Digest)
		}
		return nil
	case store.OpEvict:
		r.evictReplicated(rec.Name)
		return nil
	}
	return fmt.Errorf("serve: replicate: unknown op %v", rec.Op)
}

// evictReplicated removes name without journaling — the replication
// mirror of Evict. Missing names are fine (idempotent): a resync may
// have already removed the entry.
func (r *Registry) evictReplicated(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.entries, name)
	if r.forensics != nil {
		r.forensics.Unbind(name)
	}
}

// ResetReplicated replaces the registry's entire contents with docs —
// the registry side of a snapshot resync. An entry the snapshot carries
// unchanged (same name, digest and threshold) stays registered and
// serving throughout; only changed or new docs are rebuilt, through the
// same digest-verified restore path a warm start uses, and names the
// snapshot lacks are dropped. Emptying the registry first would answer
// every read in the rebuild window with 404.
func (r *Registry) ResetReplicated(ctx context.Context, docs []store.TopologyDoc) error {
	keep := make(map[string]bool, len(docs))
	var rebuild []store.TopologyDoc
	for _, doc := range docs {
		keep[doc.Name] = true
		if e, err := r.Get(doc.Name); err == nil && doc.Digest != "" && e.Digest == doc.Digest && e.Det.Alpha() == doc.Alpha {
			continue
		}
		r.evictReplicated(doc.Name)
		rebuild = append(rebuild, doc)
	}
	r.mu.Lock()
	for name := range r.entries {
		if !keep[name] {
			delete(r.entries, name)
			if r.forensics != nil {
				r.forensics.Unbind(name)
			}
		}
	}
	r.mu.Unlock()
	if _, err := r.Restore(ctx, rebuild); err != nil {
		return fmt.Errorf("serve: replication resync: %w", err)
	}
	return nil
}
