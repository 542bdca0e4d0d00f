package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

// DefaultPollInterval is the follower pull cadence when none is set.
const DefaultPollInterval = 500 * time.Millisecond

// maxBatchBytes bounds one replication response body. Snapshot resyncs
// ship every live topology doc, so the cap is sized like the store's
// own record cap rather than a request-sized one.
const maxBatchBytes = 256 << 20

// Tailer pulls a primary's WAL into a follower: each Step fetches the
// WAL frames after the follower's last applied sequence and hands them
// to the follower's store, which journals each record before the
// tailer folds it into the follower's registry (journal first, like the
// primary's journal-then-apply order) and fsyncs once per batch. The
// follower's WAL ends up byte-identical to the primary's because the
// frames are the primary's own bytes, shipped verbatim.
//
// The tailer is the follower store's only writer until failover: the
// follower's registry has no attached store, and Promote attaches it
// only after the tailer stops being relevant (a promoted node's Step
// becomes a no-op).
type Tailer struct {
	// Server is the follower being fed.
	Server *serve.Server
	// Source returns the current primary's base URL — a closure over the
	// group so failover re-points the tailer without coordination.
	Source func() string
	// HTTP issues the pulls (nil = http.DefaultClient).
	HTTP *http.Client
	// Interval is the Run poll cadence (0 = DefaultPollInterval).
	Interval time.Duration
	// Logger receives pull failures (nil = silent).
	Logger *slog.Logger
}

// Step performs one pull-and-apply cycle and returns how many records
// (or resync docs) were applied. A Step on a node that is no longer a
// follower is a no-op, so a promoted node's still-running tailer
// cannot write behind its registry's back.
func (t *Tailer) Step(ctx context.Context) (int, error) {
	if t.Server.Role() != serve.RoleFollower {
		return 0, nil
	}
	st := t.Server.ReplicationStore()
	from := st.LastSeq()
	url := strings.TrimRight(t.Source(), "/") + "/v1/replication/wal?from=" + strconv.FormatUint(from, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	httpc := t.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("cluster: wal pull: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBatchBytes))
	if err != nil {
		return 0, fmt.Errorf("cluster: wal pull body: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("cluster: wal pull: status %d: %s", resp.StatusCode, raw)
	}
	var batch serve.ReplicationBatch
	if err := json.Unmarshal(raw, &batch); err != nil {
		return 0, fmt.Errorf("cluster: wal pull decode: %w", err)
	}

	applied := 0
	if batch.Resync {
		// Compaction folded the tail this follower needed — or the
		// follower is AHEAD of the primary (a stale ex-primary rejoining
		// after a failover it missed): either way, install the primary's
		// full state instead of records. Journal first, then replace the
		// registry through the digest-verified restore path.
		if last := st.LastSeq(); batch.ResyncSeq < last {
			discarded, err := st.ForceInstallSnapshot(batch.Docs, batch.ResyncSeq)
			if err != nil {
				return 0, fmt.Errorf("cluster: divergence resync: %w", err)
			}
			if t.Logger != nil {
				t.Logger.Warn("follower was ahead of its primary; diverged tail discarded",
					"local_seq", last, "primary_seq", batch.ResyncSeq, "discarded", discarded)
			}
		} else if err := st.InstallSnapshot(batch.Docs, batch.ResyncSeq); err != nil {
			return 0, fmt.Errorf("cluster: resync snapshot: %w", err)
		}
		if err := t.Server.Registry().ResetReplicated(ctx, batch.Docs); err != nil {
			return 0, fmt.Errorf("cluster: resync registry: %w", err)
		}
		applied = len(batch.Docs)
	} else {
		applied, err = st.ApplyFrames(batch.Frames, func(rec store.Record) error {
			return t.Server.Registry().ApplyReplicated(ctx, rec)
		})
		if err != nil {
			return applied, fmt.Errorf("cluster: replicate after seq %d: %w", from, err)
		}
	}
	lag := uint64(0)
	if last := st.LastSeq(); batch.LastSeq > last {
		lag = batch.LastSeq - last
	}
	t.Server.SetReplicationLag(lag)
	return applied, nil
}

// Run polls until ctx is cancelled or the node stops being a follower
// (promotion ends the tail; the new primary owns its own journal).
// Pull errors are logged and retried on the next tick — a dead primary
// must not kill the tailer, because failover will re-point Source at
// the promoted node.
func (t *Tailer) Run(ctx context.Context) {
	iv := t.Interval
	if iv <= 0 {
		iv = DefaultPollInterval
	}
	tick := time.NewTicker(iv)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if t.Server.Role() != serve.RoleFollower {
			return
		}
		if _, err := t.Step(ctx); err != nil && t.Logger != nil {
			t.Logger.Warn("replication pull failed", "source", t.Source(), "err", err)
		}
	}
}
