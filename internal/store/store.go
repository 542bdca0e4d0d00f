package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Backend is the registry-facing journal interface: durably record a
// mutation before the caller applies and acknowledges it. *Store is the
// production implementation; tests substitute fakes to exercise the
// failure path.
type Backend interface {
	AppendRegister(doc TopologyDoc) error
	AppendEvict(name string) error
}

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs after every append: a mutation acknowledged to
	// the client survives a machine crash. The durable default.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval lets appends ride the OS page cache and fsyncs on a
	// background cadence, bounding loss to one interval.
	FsyncInterval
	// FsyncNever leaves syncing to the OS (and to Sync/Close). Process
	// crashes lose nothing — the data is in the page cache — but a
	// machine crash can lose the unsynced tail.
	FsyncNever
)

// String renders the policy in its flag spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseFsyncPolicy parses the -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval, or never)", s)
}

// Defaults for Options zero values.
const (
	DefaultFsyncInterval    = 100 * time.Millisecond
	DefaultCompactThreshold = int64(4 << 20)
)

// On-disk file names. The WAL is a single append-only file; snapshots
// are immutable and named by the last sequence number they fold;
// MANIFEST names the current snapshot and is only ever replaced by
// atomic rename.
const (
	walName      = "wal.log"
	manifestName = "MANIFEST"
	snapPrefix   = "snapshot-"
	snapSuffix   = ".snap"
)

// Options parameterizes Open.
type Options struct {
	// Fsync is the WAL durability policy (zero value: FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the background sync cadence under FsyncInterval;
	// 0 means DefaultFsyncInterval.
	FsyncInterval time.Duration
	// CompactThreshold is the WAL byte size that triggers folding the
	// log into a fresh snapshot; 0 means DefaultCompactThreshold,
	// negative disables compaction.
	CompactThreshold int64
	// Metrics receives append/fsync/replay latencies and counters; nil
	// disables instrumentation.
	Metrics *Metrics
	// Logger receives recovery and compaction events; nil discards.
	Logger *slog.Logger
}

// RecoveredState is what Open reconstructed from disk: the live
// topologies in registration order, plus replay accounting.
type RecoveredState struct {
	// Topologies is the materialized registry state, oldest
	// registration first.
	Topologies []TopologyDoc
	// SnapshotSeq is the last sequence folded into the loaded snapshot
	// (0 when recovery started from an empty state).
	SnapshotSeq uint64
	// LastSeq is the highest sequence applied (snapshot or WAL).
	LastSeq uint64
	// ReplayedRecords counts WAL records applied on top of the snapshot.
	ReplayedRecords int
	// SkippedRecords counts WAL records already folded into the
	// snapshot (seq ≤ SnapshotSeq), seen when a crash landed between
	// compaction's manifest rename and its WAL truncate.
	SkippedRecords int
	// TornTail reports whether the WAL ended in a torn or corrupt
	// record; TruncatedBytes is how much tail was dropped.
	TornTail       bool
	TruncatedBytes int64
}

// Store is a crash-safe registry journal: Append* durably logs
// mutations, Open replays them. Safe for concurrent use; appends are
// serialized internally (callers — the serve registry — additionally
// serialize them under the registry lock, which fixes the WAL order to
// match the registry order).
type Store struct {
	dir  string
	opts Options
	log  *slog.Logger
	m    *Metrics

	mu        sync.Mutex
	wal       *os.File
	walSize   int64
	nextSeq   uint64
	snapSeq   uint64  // last seq folded into the current snapshot
	index     []int64 // WAL offset of each live frame: index[i] holds seq snapSeq+1+i
	encBuf    []byte  // frame scratch, reused under mu by append
	state     map[string]TopologyDoc
	order     []string // live names, oldest registration first
	recovered RecoveredState
	dirty     bool
	closed    bool

	syncStop chan struct{}
	syncDone chan struct{}
}

// snapshotDoc is the JSON schema of a snapshot file: the full registry
// state as of sequence Seq.
type snapshotDoc struct {
	Version    int           `json:"version"`
	Seq        uint64        `json:"seq"`
	Topologies []TopologyDoc `json:"topologies"`
}

// manifestDoc is the JSON schema of MANIFEST: which snapshot is
// current, what it folds, and its checksum. MANIFEST is replaced only
// by atomic rename, so readers see the old or the new document, never a
// torn one.
type manifestDoc struct {
	Version  int    `json:"version"`
	Snapshot string `json:"snapshot"`
	Seq      uint64 `json:"seq"`
	CRC32C   uint32 `json:"crc32c"`
}

const snapshotVersion = 1

// Open opens (creating if needed) the data directory, recovers the
// registry state — latest valid snapshot plus the replayable WAL tail,
// truncating at the first torn or corrupt record — and leaves the WAL
// positioned for appends. The recovered state is available from
// Recovered. Recovery runs under a "store.recover" trace span when ctx
// carries one.
func Open(ctx context.Context, dir string, opts Options) (*Store, error) {
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = DefaultFsyncInterval
	}
	if opts.CompactThreshold == 0 {
		opts.CompactThreshold = DefaultCompactThreshold
	}
	log := opts.Logger
	if log == nil {
		log = obs.DiscardLogger()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	st := &Store{
		dir:   dir,
		opts:  opts,
		log:   log,
		m:     opts.Metrics,
		state: make(map[string]TopologyDoc),
	}
	if err := st.recover(ctx); err != nil {
		if st.wal != nil {
			st.wal.Close()
		}
		return nil, err
	}
	if opts.Fsync == FsyncInterval {
		st.syncStop = make(chan struct{})
		st.syncDone = make(chan struct{})
		go st.syncLoop()
	}
	return st, nil
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Recovered returns what Open reconstructed from disk. The returned
// state is a snapshot taken at open time; later appends do not modify
// it.
func (s *Store) Recovered() RecoveredState { return s.recovered }

// recover loads the manifest-named snapshot (verifying its checksum),
// replays the WAL tail, truncates the file at the first torn or corrupt
// record, and opens the WAL for appending.
func (s *Store) recover(ctx context.Context) error {
	ctx, span := obs.StartSpan(ctx, "store.recover")
	defer span.End()
	t0 := time.Now()

	snapSeq, err := s.loadSnapshot(ctx)
	if err != nil {
		return err
	}
	s.recovered.SnapshotSeq = snapSeq
	s.snapSeq = snapSeq
	lastSeq, err := s.replayWAL(ctx, snapSeq)
	if err != nil {
		return err
	}
	s.nextSeq = lastSeq + 1
	s.recovered.LastSeq = lastSeq
	s.recovered.Topologies = s.snapshotStateLocked()
	s.m.observeReplay(time.Since(t0))
	span.SetInt("topologies", len(s.order))
	span.SetInt("replayed", s.recovered.ReplayedRecords)
	span.SetBool("torn_tail", s.recovered.TornTail)
	s.log.Info("store recovered",
		"dir", s.dir,
		"topologies", len(s.order),
		"snapshot_seq", snapSeq,
		"last_seq", lastSeq,
		"replayed", s.recovered.ReplayedRecords,
		"skipped", s.recovered.SkippedRecords,
		"torn_tail", s.recovered.TornTail,
		"truncated_bytes", s.recovered.TruncatedBytes,
	)
	return nil
}

// loadSnapshot reads MANIFEST and the snapshot it names into the state
// mirror, returning the snapshot's folded sequence. A missing MANIFEST
// means a fresh (or never-compacted) store and is not an error; a
// manifest that names an unreadable or checksum-failing snapshot is a
// hard error — unlike a torn WAL tail, a damaged snapshot cannot be
// truncated around without silently losing acknowledged state.
func (s *Store) loadSnapshot(ctx context.Context) (uint64, error) {
	_, span := obs.StartSpan(ctx, "store.snapshot_load")
	defer span.End()
	raw, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		span.SetBool("present", false)
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: read manifest: %w", err)
	}
	var man manifestDoc
	if err := strictUnmarshal(raw, &man); err != nil {
		return 0, fmt.Errorf("store: parse manifest: %w", err)
	}
	if man.Version != snapshotVersion {
		return 0, fmt.Errorf("store: manifest version %d, want %d", man.Version, snapshotVersion)
	}
	if man.Snapshot != filepath.Base(man.Snapshot) {
		return 0, fmt.Errorf("store: manifest names snapshot outside the data dir: %q", man.Snapshot)
	}
	snapRaw, err := os.ReadFile(filepath.Join(s.dir, man.Snapshot))
	if err != nil {
		return 0, fmt.Errorf("store: read snapshot %s: %w", man.Snapshot, err)
	}
	if got := crc32.Checksum(snapRaw, crcTable); got != man.CRC32C {
		return 0, fmt.Errorf("store: snapshot %s CRC32C %08x, manifest says %08x", man.Snapshot, got, man.CRC32C)
	}
	var snap snapshotDoc
	if err := strictUnmarshal(snapRaw, &snap); err != nil {
		return 0, fmt.Errorf("store: parse snapshot %s: %w", man.Snapshot, err)
	}
	if snap.Version != snapshotVersion {
		return 0, fmt.Errorf("store: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	if snap.Seq != man.Seq {
		return 0, fmt.Errorf("store: snapshot seq %d, manifest says %d", snap.Seq, man.Seq)
	}
	for _, doc := range snap.Topologies {
		if doc.Name == "" {
			return 0, fmt.Errorf("store: snapshot %s holds an unnamed topology", man.Snapshot)
		}
		s.applyRegister(doc)
	}
	span.SetBool("present", true)
	span.SetInt("topologies", len(snap.Topologies))
	return snap.Seq, nil
}

// replayWAL applies the WAL tail on top of the snapshot state and
// leaves s.wal open, truncated to its valid prefix, positioned at the
// end. Records with seq ≤ snapSeq were already folded and are skipped;
// every live record must carry the next sequence, so a regressed or
// skipped sequence, torn frame, or failed checksum truncates the log
// there. Each live record's offset goes into the Since index.
func (s *Store) replayWAL(ctx context.Context, snapSeq uint64) (uint64, error) {
	_, span := obs.StartSpan(ctx, "store.wal_replay")
	defer span.End()
	path := filepath.Join(s.dir, walName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return 0, fmt.Errorf("store: open wal: %w", err)
	}
	s.wal = f
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("store: read wal: %w", err)
	}
	lastSeq := snapSeq
	off := 0
	var tailErr error
	for off < len(raw) {
		rec, n, err := DecodeRecord(raw[off:])
		if err != nil {
			tailErr = err
			break
		}
		if rec.Seq <= snapSeq {
			s.recovered.SkippedRecords++
			off += n
			continue
		}
		if rec.Seq != lastSeq+1 {
			tailErr = fmt.Errorf("%w: sequence %d after %d", ErrCorrupt, rec.Seq, lastSeq)
			break
		}
		s.applyRecord(rec)
		s.index = append(s.index, int64(off))
		lastSeq = rec.Seq
		s.recovered.ReplayedRecords++
		off += n
	}
	if tailErr != nil {
		dropped := int64(len(raw) - off)
		s.recovered.TornTail = true
		s.recovered.TruncatedBytes = dropped
		s.m.countTruncation(dropped)
		s.log.Warn("store truncating wal tail",
			"offset", off, "dropped_bytes", dropped, "cause", tailErr)
		if err := f.Truncate(int64(off)); err != nil {
			return 0, fmt.Errorf("store: truncate wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return 0, fmt.Errorf("store: sync truncated wal: %w", err)
		}
	}
	if _, err := f.Seek(int64(off), 0); err != nil {
		return 0, fmt.Errorf("store: seek wal: %w", err)
	}
	s.walSize = int64(off)
	span.SetInt("replayed", s.recovered.ReplayedRecords)
	span.SetInt("bytes", off)
	return lastSeq, nil
}

// applyRegister folds a register into the state mirror. Re-registering
// a live name replaces it in place (the registry rejects duplicates, so
// this only happens replaying a register after an unlogged evict — it
// keeps the fold total rather than order-sensitive).
func (s *Store) applyRegister(doc TopologyDoc) {
	if _, live := s.state[doc.Name]; !live {
		s.order = append(s.order, doc.Name)
	}
	s.state[doc.Name] = doc
}

// applyEvict folds an evict into the state mirror.
func (s *Store) applyEvict(name string) {
	if _, live := s.state[name]; !live {
		return
	}
	delete(s.state, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// applyRecord folds a decoded WAL record into the state mirror.
func (s *Store) applyRecord(rec Record) {
	switch rec.Op {
	case OpRegister:
		s.applyRegister(rec.Doc)
	case OpEvict:
		s.applyEvict(rec.Name)
	}
}

// snapshotStateLocked copies the live state in registration order.
func (s *Store) snapshotStateLocked() []TopologyDoc {
	out := make([]TopologyDoc, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.state[name])
	}
	return out
}

// AppendRegister durably logs a registration. It returns only after the
// record is written (and, under FsyncAlways, fsynced), so a caller that
// acknowledges the mutation afterwards can honour that acknowledgement
// across a crash.
func (s *Store) AppendRegister(doc TopologyDoc) error {
	if doc.Name == "" {
		return fmt.Errorf("store: register without a name")
	}
	return s.append(Record{Op: OpRegister, Doc: doc})
}

// AppendEvict durably logs an eviction.
func (s *Store) AppendEvict(name string) error {
	if name == "" {
		return fmt.Errorf("store: evict without a name")
	}
	return s.append(Record{Op: OpEvict, Name: name})
}

// append frames rec with the next sequence, writes it, applies the
// mirror update, syncs per policy, and compacts if the log crossed the
// threshold.
func (s *Store) append(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	rec.Seq = s.nextSeq
	frame := EncodeRecord(s.encBuf[:0], rec)
	s.encBuf = frame
	if len(frame)-headerBytes > MaxRecordBytes {
		return fmt.Errorf("store: record payload %d bytes exceeds cap %d", len(frame)-headerBytes, MaxRecordBytes)
	}
	t0 := time.Now()
	if _, err := s.wal.Write(frame); err != nil {
		// A partial write leaves a torn tail; recovery will truncate it.
		// The in-memory mirror and sequence are NOT advanced, so the
		// store stays consistent with what the caller observed (an
		// error ⇒ the mutation did not happen).
		return fmt.Errorf("store: wal append: %w", err)
	}
	s.m.observeAppend(time.Since(t0))
	s.m.countRecord()
	s.index = append(s.index, s.walSize)
	s.nextSeq++
	s.walSize += int64(len(frame))
	s.dirty = true
	s.applyRecord(rec)
	return s.settleLocked()
}

// settleLocked finishes a WAL write: fsync under FsyncAlways, then
// compaction if the log crossed the threshold.
func (s *Store) settleLocked() error {
	if s.opts.Fsync == FsyncAlways {
		if err := s.syncLocked(); err != nil {
			return err
		}
	}
	if s.opts.CompactThreshold > 0 && s.walSize >= s.opts.CompactThreshold {
		if err := s.compactLocked(); err != nil {
			// The WAL is intact and the mutation is durable; a failed
			// compaction only means the log stays long. Log and carry on.
			s.log.Error("store compaction failed", "err", err)
		}
	}
	return nil
}

// Sync flushes and fsyncs the WAL — the SIGTERM path, and the
// FsyncNever/Interval durability backstop.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if !s.dirty {
		return nil
	}
	t0 := time.Now()
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: wal fsync: %w", err)
	}
	s.m.observeFsync(time.Since(t0))
	s.dirty = false
	return nil
}

// syncLoop is the FsyncInterval background syncer.
func (s *Store) syncLoop() {
	defer close(s.syncDone)
	t := time.NewTicker(s.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.syncStop:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.closed {
				if err := s.syncLocked(); err != nil {
					s.log.Error("store interval fsync failed", "err", err)
				}
			}
			s.mu.Unlock()
		}
	}
}

// Compact folds the WAL into a fresh snapshot now, regardless of size.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	return s.compactLocked()
}

// compactLocked writes the full live state as a new snapshot, points
// MANIFEST at it, and resets the WAL. Crash-safety argument, step by
// step: the snapshot lands under a fresh name by atomic rename, so a
// crash before the MANIFEST rename leaves the old manifest naming the
// old (intact) snapshot; the MANIFEST rename is the commit point; a
// crash before the WAL truncate leaves folded records in the log, which
// replay skips by sequence number (seq ≤ snapshot seq). Old snapshots
// are removed only after the commit point, best-effort.
func (s *Store) compactLocked() error {
	// Everything below the fold must be durable before the snapshot
	// claims to cover it.
	if err := s.syncLocked(); err != nil {
		return err
	}
	seq := s.nextSeq - 1
	raw := appendSnapshotDoc(nil, seq, s.snapshotStateLocked())
	oldSize := s.walSize
	if err := s.commitSnapshotLocked(raw, seq); err != nil {
		return err
	}
	s.m.countCompaction()
	s.log.Info("store compacted", "seq", seq,
		"topologies", len(s.order), "folded_wal_bytes", oldSize)
	return nil
}

// commitSnapshotLocked publishes raw (an encoded snapshotDoc at seq) as
// the current snapshot — snapshot file, MANIFEST rename (the commit
// point), WAL reset — the shared tail of compaction and replication
// resync. On return the WAL is empty and snapSeq is seq.
func (s *Store) commitSnapshotLocked(raw []byte, seq uint64) error {
	snapName := fmt.Sprintf("%s%016d%s", snapPrefix, seq, snapSuffix)
	if err := s.writeFileAtomic(snapName, raw); err != nil {
		return err
	}
	s.m.countSnapshot()
	man := manifestDoc{Version: snapshotVersion, Snapshot: snapName, Seq: seq, CRC32C: crc32.Checksum(raw, crcTable)}
	manRaw, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("store: marshal manifest: %w", err)
	}
	if err := s.writeFileAtomic(manifestName, manRaw); err != nil {
		return err
	}
	// Commit point passed: the WAL's records are all ≤ seq, fold them.
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	if _, err := s.wal.Seek(0, 0); err != nil {
		return fmt.Errorf("store: rewind wal: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: sync rewound wal: %w", err)
	}
	s.walSize = 0
	s.index = s.index[:0]
	s.dirty = false
	s.snapSeq = seq
	s.removeStaleSnapshotsLocked(snapName)
	return nil
}

// removeStaleSnapshotsLocked best-effort deletes snapshots other than
// current.
func (s *Store) removeStaleSnapshotsLocked(current string) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if name == current || !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		_ = os.Remove(filepath.Join(s.dir, name))
	}
}

// writeFileAtomic writes name via a temp file in the same directory:
// write, fsync file, rename into place, fsync directory — the standard
// rename-into-place publication, so readers never observe a torn file.
func (s *Store) writeFileAtomic(name string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: temp for %s: %w", name, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", name, err)
	}
	if err := os.Rename(tmpName, filepath.Join(s.dir, name)); err != nil {
		return fmt.Errorf("store: publish %s: %w", name, err)
	}
	return s.syncDir()
}

// syncDir fsyncs the data directory so renames are durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("store: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}

// Close stops the background syncer (if any), fsyncs the WAL, and
// closes it. The store rejects appends afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	syncErr := s.syncLocked()
	closeErr := s.wal.Close()
	s.mu.Unlock()
	if s.syncStop != nil {
		close(s.syncStop)
		<-s.syncDone
	}
	if syncErr != nil {
		return syncErr
	}
	if closeErr != nil {
		return fmt.Errorf("store: close wal: %w", closeErr)
	}
	return nil
}

// WALSize returns the current WAL byte size (for tests and gauges).
func (s *Store) WALSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walSize
}

// DirSize sums the file sizes under dir — the store_data_dir_bytes
// gauge source. Unreadable entries count zero.
func DirSize(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// sortDocs orders docs by name — a helper for tests comparing
// recovered state to a registry, whose Names() are sorted.
func sortDocs(docs []TopologyDoc) {
	sort.Slice(docs, func(i, j int) bool { return docs[i].Name < docs[j].Name })
}
