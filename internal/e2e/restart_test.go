package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/la"
	"repro/internal/serve"
	"repro/internal/store"
)

// persistentHarness boots a journal-backed harness on dir, failing the
// test on any open/recovery error.
func persistentHarness(t *testing.T, dir string, sopts store.Options) (*Harness, *Client) {
	t.Helper()
	h, err := NewPersistentHarness(context.Background(), serve.Config{RequestTimeout: -1}, dir, sopts)
	if err != nil {
		t.Fatal(err)
	}
	return h, NewClient(h.URL(), nil)
}

// rawEstimate posts an estimate request and returns the response body
// bytes verbatim — the restart tests compare these byte-for-byte, a
// stronger claim than comparing parsed floats.
func rawEstimate(t *testing.T, c *Client, topology string, y la.Vector) []byte {
	t.Helper()
	body, err := json.Marshal(serve.RoundsRequest{Topology: topology, Y: y})
	if err != nil {
		t.Fatal(err)
	}
	status, raw, err := c.PostRaw(context.Background(), "/v1/estimate", body)
	if err != nil {
		t.Fatal(err)
	}
	if status != 200 {
		t.Fatalf("estimate %s: status %d: %s", topology, status, raw)
	}
	return raw
}

// TestKillRestartWarm is the subsystem's end-to-end acceptance test:
// register the full scenario campaign against a journal-backed harness,
// kill it without any graceful store close (-fsync=always makes every
// acknowledged mutation durable on its own), restart on the same data
// dir, and demand the registry digests and the raw /v1/estimate
// response bytes are identical — the restarted daemon is
// indistinguishable from the one that died.
func TestKillRestartWarm(t *testing.T) {
	dir := t.TempDir()
	scenarios := buildKinds(t, 1, KindClean, KindStealthy, KindChosenVictim)

	h1, c1 := persistentHarness(t, dir, store.Options{Fsync: store.FsyncAlways})
	digests := make(map[string]string)
	estimates := make(map[string][]byte)
	for _, sc := range scenarios {
		tr, err := c1.Register(context.Background(), sc.Name, sc.Sys, 0)
		if err != nil {
			t.Fatal(err)
		}
		digests[sc.Name] = tr.Digest
		y := make(la.Vector, sc.Sys.NumPaths())
		for i := range y {
			y[i] = float64(i + 1)
		}
		estimates[sc.Name] = rawEstimate(t, c1, sc.Name, y)
	}
	// One eviction in the journal: the restarted registry must not
	// resurrect it.
	if _, err := c1.Register(context.Background(), "doomed", scenarios[0].Sys, 0); err != nil {
		t.Fatal(err)
	}
	if status, err := c1.Evict(context.Background(), "doomed"); err != nil || status != 200 {
		t.Fatalf("evict: status %d err %v", status, err)
	}
	// Kill: close only the listener; the store is abandoned mid-flight,
	// exactly as a SIGKILL would leave it.
	h1.HTTP.Close()

	h2, c2 := persistentHarness(t, dir, store.Options{})
	defer h2.Close()
	for _, sc := range scenarios {
		e, err := h2.Server.Registry().Get(sc.Name)
		if err != nil {
			t.Fatalf("topology %s lost across kill/restart: %v", sc.Name, err)
		}
		if e.Digest != digests[sc.Name] {
			t.Errorf("%s digest %s after restart, want %s", sc.Name, e.Digest, digests[sc.Name])
		}
		y := make(la.Vector, sc.Sys.NumPaths())
		for i := range y {
			y[i] = float64(i + 1)
		}
		if got := rawEstimate(t, c2, sc.Name, y); !bytes.Equal(got, estimates[sc.Name]) {
			t.Errorf("%s estimate bytes diverged across restart:\n before %s\n after  %s",
				sc.Name, estimates[sc.Name], got)
		}
	}
	if _, err := h2.Server.Registry().Get("doomed"); err == nil {
		t.Error("evicted topology resurrected by recovery")
	}
	// The warm start re-factored each distinct routing matrix exactly
	// once: all three scenarios share Fig. 1's matrix, so the restarted
	// cache shows one miss and two hits.
	if hits, misses := h2.Server.Metrics().CacheHits.Load(), h2.Server.Metrics().CacheMisses.Load(); hits != 2 || misses != 1 {
		t.Errorf("restart cache hits/misses = %d/%d, want 2/1", hits, misses)
	}
}

// TestKillRestartTornRecord crashes the daemon mid-append: the WAL ends
// in a torn frame. Recovery must truncate the tail, count it in the
// store_* metrics, and leave every previously acknowledged topology
// serving estimates.
func TestKillRestartTornRecord(t *testing.T) {
	dir := t.TempDir()
	scenarios := buildKinds(t, 1, KindStealthy)
	sc := scenarios[0]

	h1, c1 := persistentHarness(t, dir, store.Options{Fsync: store.FsyncAlways})
	tr, err := c1.Register(context.Background(), sc.Name, sc.Sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	y := make(la.Vector, sc.Sys.NumPaths())
	for i := range y {
		y[i] = float64(i + 1)
	}
	before := rawEstimate(t, c1, sc.Name, y)
	h1.HTTP.Close()

	// Simulate the crash landing mid-append: a frame header promising 64
	// payload bytes, followed by only two — exactly what a power cut
	// during write(2) leaves behind.
	wal, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	h2, c2 := persistentHarness(t, dir, store.Options{})
	defer h2.Close()
	rec := h2.Store.Recovered()
	if !rec.TornTail {
		t.Error("recovery did not flag the torn tail")
	}
	if rec.TruncatedBytes != 6 {
		t.Errorf("recovery truncated %d bytes, want 6", rec.TruncatedBytes)
	}
	snap, err := c2.MetricsSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap["store_wal_truncations_total"] < 1 {
		t.Errorf("store_wal_truncations_total = %g, want >= 1", snap["store_wal_truncations_total"])
	}
	if snap["store_wal_truncated_bytes_total"] != 6 {
		t.Errorf("store_wal_truncated_bytes_total = %g, want 6", snap["store_wal_truncated_bytes_total"])
	}
	// The acknowledged topology survived the torn tail bit-for-bit...
	e, err := h2.Server.Registry().Get(sc.Name)
	if err != nil {
		t.Fatal(err)
	}
	if e.Digest != tr.Digest {
		t.Errorf("digest %s after torn-tail recovery, want %s", e.Digest, tr.Digest)
	}
	if got := rawEstimate(t, c2, sc.Name, y); !bytes.Equal(got, before) {
		t.Errorf("estimate bytes diverged after torn-tail recovery")
	}
	// ...and the truncated journal accepts and persists new mutations.
	if _, err := c2.Register(context.Background(), "after-tear", sc.Sys, 0); err != nil {
		t.Fatal(err)
	}
	h2.Close()
	h3, _ := persistentHarness(t, dir, store.Options{})
	defer h3.Close()
	if _, err := h3.Server.Registry().Get("after-tear"); err != nil {
		t.Errorf("post-recovery registration lost on next restart: %v", err)
	}
}
