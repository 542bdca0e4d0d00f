package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecodeRecord drives the WAL record decoder with arbitrary bytes.
// Invariants: the decoder never panics; a successful decode consumed a
// plausible frame whose CRC32C verifiably covered the whole payload (so
// corrupting the stored checksum must make the same bytes fail); and a
// decoded record survives an encode → decode round trip unchanged.
func FuzzDecodeRecord(f *testing.F) {
	// Valid frames of both ops, so the fuzzer starts inside the format.
	f.Add(EncodeRecord(nil, Record{Op: OpRegister, Seq: 1, Doc: TopologyDoc{
		Name:   "fig1",
		Edges:  [][]string{{"a", "b"}, {"b", "c"}},
		Paths:  [][]string{{"a", "b", "c"}},
		Alpha:  200,
		Digest: "d1",
	}}))
	f.Add(EncodeRecord(nil, Record{Op: OpEvict, Seq: 2, Name: "fig1"}))
	// Hostile shapes: empty, truncated header, garbage, huge length.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte("not a wal record at all, just text"))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1, 1})
	f.Add(bytes.Repeat([]byte{0}, 64))

	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 1<<20 {
			return
		}
		rec, n, err := DecodeRecord(input)
		if err != nil {
			if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		// A successful decode consumed a well-framed span.
		if n < minFrameSize || n > len(input) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(input))
		}
		// The CRC genuinely gated acceptance: flipping the stored
		// checksum must turn this exact frame corrupt.
		mut := bytes.Clone(input[:n])
		stored := binary.LittleEndian.Uint32(mut[4:8])
		binary.LittleEndian.PutUint32(mut[4:8], stored^0xDEADBEEF)
		if _, _, err := DecodeRecord(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bad CRC accepted: %v", err)
		}
		// And the payload really hashes to the stored value.
		if got := crc32.Checksum(input[headerBytes:n], crcTable); got != stored {
			t.Fatalf("decoder accepted CRC %08x but payload hashes to %08x", stored, got)
		}
		// Round trip: re-encoding the decoded record yields a frame that
		// decodes back to the same record.
		re := EncodeRecord(nil, rec)
		rec2, _, err := DecodeRecord(re)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if rec2.Op != rec.Op || rec2.Seq != rec.Seq || rec2.Name != rec.Name ||
			rec2.Doc.Name != rec.Doc.Name || rec2.Doc.Digest != rec.Doc.Digest ||
			rec2.Doc.Alpha != rec.Doc.Alpha ||
			len(rec2.Doc.Edges) != len(rec.Doc.Edges) || len(rec2.Doc.Paths) != len(rec.Doc.Paths) {
			t.Fatalf("round trip changed record: %+v vs %+v", rec, rec2)
		}
	})
}

// FuzzApplyFrames drives the follower's replication ingest with
// arbitrary bytes on a fresh store, differentially against a
// DecodeRecord loop. Invariants: ApplyFrames never panics; it accepts
// exactly the inputs that decode frame by frame into sequences 1, 2, 3,
// …; a rejected batch leaves the sequence, the WAL and the mirror
// untouched; an accepted one hands on exactly those records and writes
// the input to the WAL verbatim, so Since(0) serves it back byte for
// byte. The seed corpus (testdata/fuzz/FuzzApplyFrames) holds good,
// gapped, duplicated, corrupt and torn batches.
func FuzzApplyFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<20 {
			return
		}
		var want []Record
		ok := true
		for off := 0; off < len(raw); {
			rec, n, err := DecodeRecord(raw[off:])
			if err != nil || rec.Seq != uint64(len(want)+1) {
				ok = false
				break
			}
			want = append(want, rec)
			off += n
		}

		dir := t.TempDir()
		st := mustOpen(t, dir, Options{Fsync: FsyncNever, CompactThreshold: -1})
		defer st.Close()
		var recs []Record
		n, err := st.ApplyFrames(raw, func(rec Record) error {
			recs = append(recs, rec)
			return nil
		})
		if err != nil {
			if ok {
				t.Fatalf("rejected a batch of %d contiguous frames: %v", len(want), err)
			}
			if st.LastSeq() != 0 || st.WALSize() != 0 || len(liveState(st)) != 0 {
				t.Fatalf("rejected batch left seq %d, wal %d bytes, %d topologies",
					st.LastSeq(), st.WALSize(), len(liveState(st)))
			}
			if disk, _ := os.ReadFile(filepath.Join(dir, walName)); len(disk) != 0 {
				t.Fatalf("rejected batch wrote %d WAL bytes", len(disk))
			}
			return
		}
		if !ok {
			t.Fatal("accepted a batch the DecodeRecord loop rejects")
		}
		if n != len(recs) || !reflect.DeepEqual(recs, want) {
			t.Fatalf("applied %d records (%d handed on), the decode loop read %d", n, len(recs), len(want))
		}
		if st.LastSeq() != uint64(len(want)) || st.WALSize() != int64(len(raw)) {
			t.Fatalf("applied batch: seq %d, wal %d bytes; want %d, %d", st.LastSeq(), st.WALSize(), len(want), len(raw))
		}
		if disk, _ := os.ReadFile(filepath.Join(dir, walName)); !bytes.Equal(disk, raw) {
			t.Fatal("WAL does not hold the batch verbatim")
		}
		if len(want) > 0 {
			res, err := st.Since(0)
			if err != nil || !bytes.Equal(res.Frames, raw) {
				t.Fatalf("Since(0) did not serve the batch back: %v", err)
			}
		}
	})
}
