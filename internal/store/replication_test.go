package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// liveState returns the store's current state mirror (test helper; the
// production read path is Since/Recovered).
func liveState(s *Store) []TopologyDoc {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotStateLocked()
}

// frameSeqs decodes a batch of WAL frames, returning their sequences.
func frameSeqs(t *testing.T, raw []byte) []uint64 {
	t.Helper()
	var seqs []uint64
	for off := 0; off < len(raw); {
		rec, n, err := DecodeRecord(raw[off:])
		if err != nil {
			t.Fatalf("frame at byte %d: %v", off, err)
		}
		seqs = append(seqs, rec.Seq)
		off += n
	}
	return seqs
}

// applySince folds one replication pull into the follower, returning
// the record sequences applied (empty for a resync or an empty pull).
func applySince(t *testing.T, follower *Store, res SinceResult) []uint64 {
	t.Helper()
	if res.Resync {
		if err := follower.InstallSnapshot(res.Docs, res.ResyncSeq); err != nil {
			t.Fatalf("install snapshot at %d: %v", res.ResyncSeq, err)
		}
		return nil
	}
	var seqs []uint64
	if _, err := follower.ApplyFrames(res.Frames, func(rec Record) error {
		seqs = append(seqs, rec.Seq)
		return nil
	}); err != nil {
		t.Fatalf("apply frames: %v", err)
	}
	return seqs
}

func TestReplicationTailShipsRecords(t *testing.T) {
	primary := mustOpen(t, t.TempDir(), Options{})
	defer primary.Close()
	follower := mustOpen(t, t.TempDir(), Options{})
	defer follower.Close()

	for _, n := range []string{"one", "two", "three"} {
		if err := primary.AppendRegister(doc(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.AppendEvict("two"); err != nil {
		t.Fatal(err)
	}

	res, err := primary.Since(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resync {
		t.Fatalf("unexpected resync on an uncompacted log")
	}
	if got := frameSeqs(t, res.Frames); len(got) != 4 || res.LastSeq != 4 {
		t.Fatalf("Since(0) = seqs %v, last %d; want 4 records, last 4", got, res.LastSeq)
	}
	applySince(t, follower, res)

	if got, want := liveState(follower), liveState(primary); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower state %v != primary %v", names(got), names(want))
	}
	if follower.LastSeq() != primary.LastSeq() {
		t.Fatalf("follower seq %d != primary %d", follower.LastSeq(), primary.LastSeq())
	}

	// Caught up: the next pull is empty, not an error and not a resync.
	res, err = primary.Since(follower.LastSeq())
	if err != nil {
		t.Fatal(err)
	}
	if res.Resync || len(res.Frames) != 0 || res.LastSeq != 4 {
		t.Fatalf("caught-up pull = %+v", res)
	}
}

// The follower's own journal must recover to the shipped state: a
// promoted follower restarts exactly like the primary it replaced.
func TestFollowerJournalRecovers(t *testing.T) {
	primary := mustOpen(t, t.TempDir(), Options{})
	defer primary.Close()
	fdir := t.TempDir()
	follower := mustOpen(t, fdir, Options{})

	for i := 0; i < 5; i++ {
		if err := primary.AppendRegister(doc(fmt.Sprintf("t%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := primary.Since(0)
	if err != nil {
		t.Fatal(err)
	}
	applySince(t, follower, res)
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := mustOpen(t, fdir, Options{})
	defer reopened.Close()
	rec := reopened.Recovered()
	if rec.LastSeq != 5 || rec.ReplayedRecords != 5 || rec.TornTail {
		t.Fatalf("follower recovery %+v", rec)
	}
	if got, want := liveState(reopened), liveState(primary); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered follower diverged: %v != %v", names(got), names(want))
	}
}

func TestApplyFramesRejectsOutOfOrderSeq(t *testing.T) {
	follower := mustOpen(t, t.TempDir(), Options{})
	defer follower.Close()
	frame := func(rec Record) []byte { return EncodeRecord(nil, rec) }

	x1 := frame(Record{Op: OpRegister, Seq: 1, Doc: doc("x")})
	if _, err := follower.ApplyFrames(x1, nil); err != nil {
		t.Fatal(err)
	}
	// Same seq again: a duplicate pull must not double-apply.
	if _, err := follower.ApplyFrames(x1, nil); err == nil {
		t.Fatal("duplicate seq accepted")
	}
	// A gap means the shipped stream lost records: refuse, don't skip.
	if _, err := follower.ApplyFrames(frame(Record{Op: OpRegister, Seq: 3, Doc: doc("y")}), nil); err == nil {
		t.Fatal("gapped seq accepted")
	}
	if _, err := follower.ApplyFrames(frame(Record{Op: OpRegister, Seq: 2, Doc: doc("y")}), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := follower.ApplyFrames(frame(Record{Op: OpEvict, Seq: 1, Name: "x"}), nil); err == nil {
		t.Fatal("backwards seq accepted")
	}
	if got := follower.LastSeq(); got != 2 {
		t.Fatalf("seq %d after rejected applies, want 2", got)
	}
	if got := names(liveState(follower)); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("state %v, want [x y]", got)
	}
}

// A batch is all or nothing: one bad frame anywhere in it — a gap
// between good frames, a flipped bit mid-batch, a torn last frame —
// rejects the whole batch, and nothing reaches the WAL or the mirror.
func TestApplyFramesRejectsWholeBadBatch(t *testing.T) {
	follower := mustOpen(t, t.TempDir(), Options{})
	defer follower.Close()
	batch := func(seqs ...uint64) []byte {
		var b []byte
		for _, seq := range seqs {
			b = EncodeRecord(b, Record{Op: OpRegister, Seq: seq, Doc: doc(fmt.Sprintf("t%d", seq))})
		}
		return b
	}
	good := batch(1, 2, 3)
	corrupt := bytes.Clone(good)
	second := len(EncodeRecord(nil, Record{Op: OpRegister, Seq: 1, Doc: doc("t1")}))
	corrupt[second+headerBytes+payloadMeta+3] ^= 0x40 // inside seq 2's body
	for name, raw := range map[string][]byte{
		"gap":       batch(1, 2, 4, 5),
		"duplicate": batch(1, 2, 2),
		"corrupt":   corrupt,
		"torn":      good[:len(good)-4],
	} {
		if _, err := follower.ApplyFrames(raw, nil); err == nil {
			t.Fatalf("%s batch accepted", name)
		}
		if follower.LastSeq() != 0 || follower.WALSize() != 0 || len(liveState(follower)) != 0 {
			t.Fatalf("%s batch left seq %d, wal %d bytes, %d topologies",
				name, follower.LastSeq(), follower.WALSize(), len(liveState(follower)))
		}
	}
	n, err := follower.ApplyFrames(good, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || follower.LastSeq() != 3 || follower.WALSize() != int64(len(good)) {
		t.Fatalf("good batch: %d records, seq %d, wal %d bytes", n, follower.LastSeq(), follower.WALSize())
	}
}

// Each record is journaled and published before it is handed on, so
// the applied sequence is never more than one record ahead of the
// caller's registry; an apply error stops the batch after that record,
// and what was written is still synced once.
func TestApplyFramesJournalsEachRecordBeforeApply(t *testing.T) {
	m := NewMetrics(obs.NewRegistry(), nil)
	follower := mustOpen(t, t.TempDir(), Options{Metrics: m})
	defer follower.Close()
	var raw []byte
	for seq := uint64(1); seq <= 4; seq++ {
		raw = EncodeRecord(raw, Record{Op: OpRegister, Seq: seq, Doc: doc(fmt.Sprintf("t%d", seq))})
	}
	refuse := errors.New("registry refused")
	n, err := follower.ApplyFrames(raw, func(rec Record) error {
		if got := follower.LastSeq(); got != rec.Seq {
			t.Errorf("seq %d handed on at applied seq %d", rec.Seq, got)
		}
		if rec.Seq == 2 {
			return refuse
		}
		return nil
	})
	if !errors.Is(err, refuse) || n != 2 {
		t.Fatalf("ApplyFrames = %d, %v; want 2 and the apply error", n, err)
	}
	if got := follower.LastSeq(); got != 2 {
		t.Fatalf("applied seq %d after a refused record 2, want 2", got)
	}
	if got := m.FsyncLatency.Count(); got != 1 {
		t.Fatalf("%d fsyncs for the batch, want 1", got)
	}
}

func TestInstallSnapshotRejectsRegression(t *testing.T) {
	follower := mustOpen(t, t.TempDir(), Options{})
	defer follower.Close()
	if err := follower.InstallSnapshot([]TopologyDoc{doc("ahead")}, 10); err != nil {
		t.Fatal(err)
	}
	if err := follower.InstallSnapshot([]TopologyDoc{doc("old")}, 5); err == nil {
		t.Fatal("snapshot behind the applied seq accepted")
	}
}

// The divergence contract: a follower that got AHEAD of its primary (a
// stale ex-primary rejoining after a failover it missed) must be pulled
// back onto the primary's history — Since answers its cursor with a
// full-state resync rather than "caught up", and the forced install
// reports exactly how many diverged sequences were discarded.
func TestInstallSnapshotForcedDiscardsDivergedTail(t *testing.T) {
	primary := mustOpen(t, t.TempDir(), Options{})
	defer primary.Close()
	follower := mustOpen(t, t.TempDir(), Options{})
	defer follower.Close()

	for _, n := range []string{"p0", "p1"} {
		if err := primary.AppendRegister(doc(n)); err != nil {
			t.Fatal(err)
		}
	}
	var diverged []byte
	for i := 1; i <= 5; i++ {
		diverged = EncodeRecord(diverged, Record{Op: OpRegister, Seq: uint64(i), Doc: doc(fmt.Sprintf("f%d", i))})
	}
	if _, err := follower.ApplyFrames(diverged, nil); err != nil {
		t.Fatal(err)
	}

	res, err := primary.Since(follower.LastSeq())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resync || res.ResyncSeq != 2 || res.LastSeq != 2 {
		t.Fatalf("ahead cursor answered %+v, want a resync at seq 2", res)
	}
	// The guarded install refuses the regression; only the explicit
	// force path may discard the diverged tail.
	if err := follower.InstallSnapshot(res.Docs, res.ResyncSeq); err == nil {
		t.Fatal("guarded install accepted a sequence regression")
	}
	discarded, err := follower.ForceInstallSnapshot(res.Docs, res.ResyncSeq)
	if err != nil {
		t.Fatal(err)
	}
	if discarded != 3 {
		t.Fatalf("discarded %d sequences, want 3", discarded)
	}
	if got, want := liveState(follower), liveState(primary); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-divergence state %v != primary %v", names(got), names(want))
	}
	if follower.LastSeq() != primary.LastSeq() {
		t.Fatalf("post-divergence seq %d != primary %d", follower.LastSeq(), primary.LastSeq())
	}

	// The cursor is valid again: incremental tailing resumes.
	if err := primary.AppendRegister(doc("post")); err != nil {
		t.Fatal(err)
	}
	res, err = primary.Since(follower.LastSeq())
	if err != nil {
		t.Fatal(err)
	}
	if res.Resync || len(frameSeqs(t, res.Frames)) != 1 {
		t.Fatalf("post-divergence pull = %+v, want 1 record", res)
	}
	applySince(t, follower, res)
	if got, want := liveState(follower), liveState(primary); !reflect.DeepEqual(got, want) {
		t.Fatalf("final state %v != primary %v", names(got), names(want))
	}
}

// The satellite contract: a follower tailing across the primary's
// snapshot+truncate window must resync from the snapshot with no gap
// and no duplicate application. Deterministic version first — pull,
// compact under the reader's feet, pull again from the stale cursor.
func TestCompactionRacesTailReaderDeterministic(t *testing.T) {
	primary := mustOpen(t, t.TempDir(), Options{})
	defer primary.Close()
	follower := mustOpen(t, t.TempDir(), Options{})
	defer follower.Close()

	for i := 0; i < 4; i++ {
		if err := primary.AppendRegister(doc(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := primary.Since(0)
	if err != nil {
		t.Fatal(err)
	}
	applySince(t, follower, res) // follower at seq 4

	// The primary moves on and compacts: seqs 5..8 exist only inside the
	// snapshot now, and the follower's cursor (4) predates the fold.
	if err := primary.AppendEvict("a1"); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 7; i++ {
		if err := primary.AppendRegister(doc(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := primary.SnapshotSeq(); got != 8 {
		t.Fatalf("snapshot seq %d, want 8", got)
	}

	res, err = primary.Since(follower.LastSeq())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resync {
		t.Fatalf("pull across the fold did not resync: %+v", res)
	}
	applySince(t, follower, res)

	if got, want := liveState(follower), liveState(primary); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-resync state %v != primary %v", names(got), names(want))
	}
	if follower.LastSeq() != primary.LastSeq() {
		t.Fatalf("post-resync seq %d != primary %d", follower.LastSeq(), primary.LastSeq())
	}

	// Post-resync the cursor is valid again: incremental tailing resumes
	// with records, not another resync.
	if err := primary.AppendRegister(doc("post")); err != nil {
		t.Fatal(err)
	}
	res, err = primary.Since(follower.LastSeq())
	if err != nil {
		t.Fatal(err)
	}
	if res.Resync || len(frameSeqs(t, res.Frames)) != 1 {
		t.Fatalf("post-resync pull = %+v", res)
	}
	applySince(t, follower, res)
	if got, want := liveState(follower), liveState(primary); !reflect.DeepEqual(got, want) {
		t.Fatalf("final state %v != primary %v", names(got), names(want))
	}
}

// Live version of the race: a writer appends and compacts concurrently
// with a tail reader pulling and applying. Every record sequence must
// be applied at most once (resyncs replace wholesale, never re-apply),
// and the follower must converge on the primary's exact state.
func TestCompactionRacesLiveTailReader(t *testing.T) {
	primary := mustOpen(t, t.TempDir(), Options{})
	defer primary.Close()
	follower := mustOpen(t, t.TempDir(), Options{})
	defer follower.Close()

	const writes = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < writes; i++ {
			if err := primary.AppendRegister(doc(fmt.Sprintf("w%03d", i))); err != nil {
				t.Error(err)
				return
			}
			if rng.Intn(17) == 0 {
				if err := primary.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	applied := make(map[uint64]int)
	resyncs := 0
	for follower.LastSeq() < writes {
		res, err := primary.Since(follower.LastSeq())
		if err != nil {
			t.Fatal(err)
		}
		if res.Resync {
			resyncs++
			if err := follower.InstallSnapshot(res.Docs, res.ResyncSeq); err != nil {
				t.Fatal(err)
			}
			continue
		}
		for _, seq := range applySince(t, follower, res) {
			applied[seq]++
		}
	}
	wg.Wait()

	for seq, n := range applied {
		if n > 1 {
			t.Fatalf("seq %d applied %d times", seq, n)
		}
	}
	if got, want := liveState(follower), liveState(primary); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower converged to %d topologies, primary has %d", len(got), len(want))
	}
	if follower.LastSeq() != primary.LastSeq() {
		t.Fatalf("follower seq %d != primary %d", follower.LastSeq(), primary.LastSeq())
	}
	t.Logf("live tail: %d records applied incrementally, %d resyncs", len(applied), resyncs)
}

// Since under a crashed compaction window: records at or below the
// snapshot fold still sitting in the WAL (manifest renamed, truncate
// pending) must not be shipped twice.
func TestSinceSkipsFoldedLeftovers(t *testing.T) {
	primary := mustOpen(t, t.TempDir(), Options{})
	defer primary.Close()
	for i := 0; i < 3; i++ {
		if err := primary.AppendRegister(doc(fmt.Sprintf("t%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the crash window: snapSeq advanced but the WAL not yet
	// truncated. A cursor at snapSeq must receive nothing, not replays.
	primary.mu.Lock()
	primary.snapSeq = 3
	primary.mu.Unlock()

	res, err := primary.Since(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resync || len(res.Frames) != 0 {
		t.Fatalf("folded leftovers shipped: %+v", res)
	}
}

// walTail is the reference answer for Since(k): a whole-file
// DecodeRecord scan of the store's WAL, keeping the frames of seqs
// after k.
func walTail(t *testing.T, st *Store, k uint64) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(st.Dir(), walName))
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for off := 0; off < len(raw); {
		rec, n, err := DecodeRecord(raw[off:])
		if err != nil {
			t.Fatalf("wal scan at byte %d: %v", off, err)
		}
		if rec.Seq > k {
			out = append(out, raw[off:off+n]...)
		}
		off += n
	}
	return out
}

// checkIndex asserts that Since(k) serves exactly walTail(k) for every
// cursor k in [snapSeq, last].
func checkIndex(t *testing.T, st *Store, stage string) {
	t.Helper()
	for k := st.SnapshotSeq(); k <= st.LastSeq(); k++ {
		res, err := st.Since(k)
		if err != nil {
			t.Fatalf("%s: Since(%d): %v", stage, k, err)
		}
		if res.Resync {
			t.Fatalf("%s: Since(%d) resynced", stage, k)
		}
		if want := walTail(t, st, k); !bytes.Equal(res.Frames, want) {
			t.Fatalf("%s: Since(%d) served seqs %v, the WAL scan finds %v",
				stage, k, frameSeqs(t, res.Frames), frameSeqs(t, want))
		}
	}
}

// The offset index must answer every cursor exactly as a full WAL scan
// would, through every way the log changes shape: appends and evicts,
// compaction, a reopen whose WAL still holds folded leftovers (the
// crash window between MANIFEST rename and WAL truncate), a torn-tail
// truncation, and a follower's ApplyFrames — including a batch that
// trips the follower's own compaction.
func TestSinceIndexMatchesWALScan(t *testing.T) {
	pdir := t.TempDir()
	primary := mustOpen(t, pdir, Options{CompactThreshold: -1})
	appendAll := func(st *Store, ops ...string) {
		t.Helper()
		for _, op := range ops {
			var err error
			if name, ok := strings.CutPrefix(op, "-"); ok {
				err = st.AppendEvict(name)
			} else {
				err = st.AppendRegister(doc(op))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	appendAll(primary, "a", "b", "c", "-b", "d")
	checkIndex(t, primary, "appends")

	res, err := primary.Since(0)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Frames
	follower := mustOpen(t, t.TempDir(), Options{CompactThreshold: int64(len(first)) + 1})
	defer follower.Close()
	applySince(t, follower, res)
	checkIndex(t, follower, "follower batch")
	if got := walTail(t, follower, 0); !bytes.Equal(got, first) {
		t.Fatal("follower WAL differs from the primary's")
	}

	folded, err := os.ReadFile(filepath.Join(pdir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.Compact(); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, primary, "compacted")
	appendAll(primary, "e", "-a")
	checkIndex(t, primary, "appends after compaction")

	// Crash window: put the folded records back in front of the live
	// ones, as if the WAL truncate never ran, and reopen.
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	live, err := os.ReadFile(filepath.Join(pdir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pdir, walName), append(folded, live...), 0o644); err != nil {
		t.Fatal(err)
	}
	primary = mustOpen(t, pdir, Options{CompactThreshold: -1})
	if rec := primary.Recovered(); rec.SkippedRecords != 5 || rec.ReplayedRecords != 2 {
		t.Fatalf("crash-window reopen skipped %d, replayed %d; want 5, 2", rec.SkippedRecords, rec.ReplayedRecords)
	}
	checkIndex(t, primary, "reopen with folded leftovers")
	appendAll(primary, "f")
	checkIndex(t, primary, "append after leftovers")

	// Torn tail: half a frame after the last whole one.
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	torn := EncodeRecord(nil, Record{Op: OpRegister, Seq: primary.LastSeq() + 1, Doc: doc("lost")})
	wf, err := os.OpenFile(filepath.Join(pdir, walName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	wf.Close()
	primary = mustOpen(t, pdir, Options{CompactThreshold: -1})
	defer primary.Close()
	if !primary.Recovered().TornTail {
		t.Fatal("torn tail not truncated")
	}
	checkIndex(t, primary, "torn-tail reopen")
	appendAll(primary, "g", "-c")
	checkIndex(t, primary, "append after truncation")

	// The follower's next batch crosses its compaction threshold; the
	// batch after that is indexed from an empty WAL.
	applySince(t, follower, mustSince(t, primary, follower.LastSeq()))
	if follower.SnapshotSeq() != primary.LastSeq() || follower.WALSize() != 0 {
		t.Fatalf("follower did not compact: snapshot seq %d, wal %d bytes", follower.SnapshotSeq(), follower.WALSize())
	}
	checkIndex(t, follower, "follower compacted")
	appendAll(primary, "h", "i")
	applySince(t, follower, mustSince(t, primary, follower.LastSeq()))
	checkIndex(t, follower, "follower batch after compaction")
	if got, want := liveState(follower), liveState(primary); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower state %v != primary %v", names(got), names(want))
	}
}

func mustSince(t *testing.T, st *Store, from uint64) SinceResult {
	t.Helper()
	res, err := st.Since(from)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A pull costs the tail, not the log: serving the last record allocates
// the same on a 10-record WAL as on a 500-record one.
func TestSinceCostIndependentOfWALLength(t *testing.T) {
	allocs := func(n int) float64 {
		st := mustOpen(t, t.TempDir(), Options{Fsync: FsyncNever, CompactThreshold: -1})
		defer st.Close()
		for i := 0; i < n; i++ {
			if err := st.AppendRegister(doc(fmt.Sprintf("t%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		from := st.LastSeq() - 1
		return testing.AllocsPerRun(50, func() {
			if _, err := st.Since(from); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(10), allocs(500); short != long {
		t.Fatalf("Since(last-1) allocates %v times on a 10-record WAL, %v on a 500-record one", short, long)
	}
}
