package store

import (
	"fmt"
)

// This file is the store's replication surface: a primary serves its
// journal to tailing followers with Since, and a follower mirrors the
// primary's log with ApplyFrames (a batch of the primary's WAL frames,
// preserving its sequence numbers) or InstallSnapshot (full-state
// resync when the primary compacted the records the follower still
// needs).
//
// Since ships the primary's frames verbatim and ApplyFrames writes
// them verbatim, so a follower's WAL is the primary's bytes, not a
// re-encoding of them: a promoted follower's journal replays to exactly
// the state the primary acknowledged, and the registry's digest
// verification holds on the promoted shard just as it does on a
// restart of the original.

// SinceResult is one replication pull's worth of journal. Exactly one
// of the two shapes is populated:
//
//   - Frames: the WAL frames with seq > the requested fromSeq, in
//     sequence order — the common incremental case.
//   - Resync (Docs/ResyncSeq): the full live state as of ResyncSeq,
//     returned when compaction already folded some record the follower
//     still needs; the follower must replace its state wholesale.
//
// LastSeq is the primary's current last applied sequence in both cases,
// so the follower can report its replication lag without a second call.
type SinceResult struct {
	// Resync reports that the requested tail was compacted away and
	// Docs/ResyncSeq carry a full-state snapshot instead of frames.
	Resync bool
	// Docs is the full live state at ResyncSeq (Resync only), oldest
	// registration first.
	Docs []TopologyDoc
	// ResyncSeq is the sequence the snapshot state is current to.
	ResyncSeq uint64
	// Frames are the WAL bytes of the records with seq > fromSeq
	// (non-resync), exactly as the primary's log holds them.
	Frames []byte
	// LastSeq is the store's last applied sequence.
	LastSeq uint64
}

// LastSeq returns the last sequence number applied to the store (0 for
// a fresh store) — the follower's "applied WAL seq" readiness datum and
// the fromSeq of its next replication pull.
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq - 1
}

// SnapshotSeq returns the last sequence folded into the current
// snapshot (0 when the store has never compacted). Records with seq ≤
// SnapshotSeq are no longer individually available from the WAL.
func (s *Store) SnapshotSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapSeq
}

// Since returns the journal tail after fromSeq. When every needed
// record is still in the WAL the result carries their frames, read
// with one ReadAt from the offset index — the cost is the tail's size,
// not the log's, and nothing is decoded. When compaction has already
// folded part of that range into a snapshot the result is a full-state
// resync instead (Resync true). A follower applies frames with
// ApplyFrames and resyncs with InstallSnapshot — either way it ends at
// a state identical to the primary's, with no record skipped or
// applied twice.
func (s *Store) Since(fromSeq uint64) (SinceResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SinceResult{}, fmt.Errorf("store: closed")
	}
	last := s.nextSeq - 1
	if fromSeq > last || fromSeq < s.snapSeq {
		// fromSeq > last: the follower is AHEAD of this store — it
		// applied sequences we never journaled. That happens when a
		// stale ex-primary rejoins as a follower after a failover
		// promoted a peer that had not replicated its final writes.
		// Reporting "caught up" would let the two journals diverge
		// silently under a shared sequence numbering; a full-state
		// resync makes the follower converge on this store's history
		// (discarding its unshipped tail — see ForceInstallSnapshot).
		//
		// fromSeq < snapSeq: the records in (fromSeq, snapSeq] are gone
		// — compaction folded them. Ship the whole live state at its
		// current sequence; the follower replaces rather than appends.
		return SinceResult{
			Resync:    true,
			Docs:      s.snapshotStateLocked(),
			ResyncSeq: last,
			LastSeq:   last,
		}, nil
	}
	if fromSeq == last {
		return SinceResult{LastSeq: last}, nil
	}
	// Appends are serialized with us, so [offset, walSize) is always
	// whole frames.
	off := s.index[fromSeq-s.snapSeq]
	frames := make([]byte, s.walSize-off)
	if _, err := s.wal.ReadAt(frames, off); err != nil {
		return SinceResult{}, fmt.Errorf("store: read wal tail at %d: %w", off, err)
	}
	s.m.countShipped(int(last - fromSeq))
	return SinceResult{Frames: frames, LastSeq: last}, nil
}

// ApplyFrames appends a batch of WAL frames shipped from a primary (a
// Since result's Frames) — the follower side of WAL shipping — and
// returns how many records it applied. Every frame is decoded and
// CRC-checked first, and the batch must carry exactly the next
// sequences: a stale or duplicate sequence is rejected so a mis-ordered
// pull can never corrupt the mirror, and a gap is rejected so a lossy
// or truncated batch fails loudly (the tailer re-pulls or resyncs)
// instead of silently skipping records. Any bad frame rejects the whole
// batch with nothing written.
//
// Each record is then written verbatim, folded into the state mirror
// and handed to apply (when non-nil; it runs without the store lock) —
// the follower's registry, so the journal is written before memory and
// LastSeq never runs more than one record ahead of what the registry
// serves. An apply error stops the batch after that record. The batch
// ends with one fsync under FsyncAlways, not one per record, and the
// same compaction check as a primary's append.
func (s *Store) ApplyFrames(raw []byte, apply func(Record) error) (int, error) {
	var recs []Record
	var frames [][]byte
	for off := 0; off < len(raw); {
		rec, n, err := DecodeRecord(raw[off:])
		if err != nil {
			return 0, fmt.Errorf("store: apply frame at byte %d: %w", off, err)
		}
		if len(recs) > 0 && rec.Seq != recs[len(recs)-1].Seq+1 {
			return 0, fmt.Errorf("store: apply batch skips from seq %d to %d", recs[len(recs)-1].Seq, rec.Seq)
		}
		recs = append(recs, rec)
		frames = append(frames, raw[off:off+n])
		off += n
	}
	var err error
	applied := 0
	for i, rec := range recs {
		if err = s.applyFrame(rec, frames[i]); err != nil {
			break
		}
		applied++
		if apply != nil {
			if err = apply(rec); err != nil {
				break
			}
		}
	}
	if applied == 0 {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return applied, fmt.Errorf("store: closed")
	}
	if serr := s.settleLocked(); err == nil {
		err = serr
	}
	return applied, err
}

// applyFrame writes one shipped frame and publishes its record: the
// offset index, the state mirror and the sequence. The sequence is
// checked here, under the lock, so a batch's first frame must follow
// this store's last record and an append that slipped in mid-batch (a
// promotion racing the tailer) stops the batch instead of forking the
// sequence.
func (s *Store) applyFrame(rec Record, frame []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if rec.Seq != s.nextSeq {
		return fmt.Errorf("store: apply seq %d out of order (want %d)", rec.Seq, s.nextSeq)
	}
	if _, err := s.wal.Write(frame); err != nil {
		return fmt.Errorf("store: wal apply append: %w", err)
	}
	s.m.countRecord()
	s.m.countApplied(1)
	s.index = append(s.index, s.walSize)
	s.applyRecord(rec)
	s.nextSeq++
	s.walSize += int64(len(frame))
	s.dirty = true
	return nil
}

// InstallSnapshot replaces the store's entire state with docs at seq —
// the follower side of a Since resync. The snapshot is committed with
// the same atomic snapshot+MANIFEST machinery compaction uses, then the
// WAL is reset, so a crash mid-install recovers to either the old state
// or the new one, never a blend. The sequence must not move backwards.
func (s *Store) InstallSnapshot(docs []TopologyDoc, seq uint64) error {
	_, err := s.installSnapshot(docs, seq, false)
	return err
}

// ForceInstallSnapshot is InstallSnapshot without the regression guard:
// the divergence-resync path for a follower that ended up AHEAD of its
// primary — a stale ex-primary rejoining after a failover it missed.
// The follower's unshipped tail is discarded (those records exist
// nowhere else in the fleet), so the number of discarded sequences is
// returned for the caller to surface loudly.
func (s *Store) ForceInstallSnapshot(docs []TopologyDoc, seq uint64) (uint64, error) {
	return s.installSnapshot(docs, seq, true)
}

func (s *Store) installSnapshot(docs []TopologyDoc, seq uint64, force bool) (uint64, error) {
	for _, doc := range docs {
		if doc.Name == "" {
			return 0, fmt.Errorf("store: install snapshot with an unnamed topology")
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: closed")
	}
	var discarded uint64
	if last := s.nextSeq - 1; seq < last {
		if !force {
			return 0, fmt.Errorf("store: install snapshot at seq %d behind applied seq %d", seq, last)
		}
		discarded = last - seq
		s.log.Warn("store discarding diverged tail for forced resync",
			"applied_seq", last, "resync_seq", seq, "discarded", discarded)
	}
	raw := appendSnapshotDoc(nil, seq, docs)
	if err := s.commitSnapshotLocked(raw, seq); err != nil {
		return 0, err
	}
	s.state = make(map[string]TopologyDoc, len(docs))
	s.order = s.order[:0]
	for _, doc := range docs {
		s.applyRegister(doc)
	}
	s.nextSeq = seq + 1
	s.m.countResync()
	s.log.Info("store resynced from snapshot", "seq", seq, "topologies", len(docs))
	return discarded, nil
}
