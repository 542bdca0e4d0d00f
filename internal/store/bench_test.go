package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkAppendRegister measures the WAL fast path per fsync policy.
// The -fsync=never number is the one the acceptance bar cares about:
// registration latency with the store attached must stay within 2x of
// the in-memory baseline (see BenchmarkRegisterPersistence in
// internal/serve), so the append itself has to be a marshal plus one
// buffered write.
func BenchmarkAppendRegister(b *testing.B) {
	for _, policy := range []FsyncPolicy{FsyncNever, FsyncAlways} {
		b.Run("fsync="+policy.String(), func(b *testing.B) {
			st, err := Open(context.Background(), b.TempDir(), Options{Fsync: policy, CompactThreshold: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			d := doc("bench")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Name = fmt.Sprintf("bench-%d", i)
				if err := st.AppendRegister(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecover10kRecords measures recovery replay of a 10k-record
// WAL — the acceptance bar is < 1s in the benchmark environment, and
// one iteration reports the actual wall time as ns/op.
func BenchmarkRecover10kRecords(b *testing.B) {
	dir := b.TempDir()
	st, err := Open(context.Background(), dir, Options{Fsync: FsyncNever, CompactThreshold: -1})
	if err != nil {
		b.Fatal(err)
	}
	// Exactly 10k mutations churning over 100 names: register/evict
	// pairs, like a long measurement campaign's topology churn.
	for i := 0; i < 10_000; i++ {
		name := fmt.Sprintf("topo-%03d", (i/2)%100)
		if i%2 == 0 {
			if err := st.AppendRegister(doc(name)); err != nil {
				b.Fatal(err)
			}
		} else if err := st.AppendEvict(name); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	if sz, _ := os.Stat(filepath.Join(dir, walName)); sz != nil {
		b.SetBytes(sz.Size())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(context.Background(), dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if st.Recovered().TornTail {
			b.Fatal("bench log torn")
		}
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
}

// BenchmarkCompact measures one snapshot fold at a realistic registry
// size (32 live topologies) — the pause a registration pays when its
// append crosses -compact-threshold.
func BenchmarkCompact(b *testing.B) {
	st, err := Open(context.Background(), b.TempDir(), Options{Fsync: FsyncNever, CompactThreshold: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 32; i++ {
		if err := st.AppendRegister(doc(fmt.Sprintf("live-%02d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeDecodeRecord isolates the codec itself.
func BenchmarkEncodeDecodeRecord(b *testing.B) {
	rec := Record{Op: OpRegister, Seq: 42, Doc: doc("codec")}
	frame := EncodeRecord(nil, rec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeRecord(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSinceLastRecord measures one caught-up follower's pull — the
// WAL tail after its cursor, one record here — on logs of growing
// length. The pull holds the store lock, so its cost is append latency
// for every write that arrives meanwhile; it should track the tail,
// not the log.
func BenchmarkSinceLastRecord(b *testing.B) {
	for _, n := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			st, err := Open(context.Background(), b.TempDir(), Options{Fsync: FsyncNever, CompactThreshold: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			for i := 0; i < n; i++ {
				if err := st.AppendRegister(doc(fmt.Sprintf("t%05d", i))); err != nil {
					b.Fatal(err)
				}
			}
			from := st.LastSeq() - 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Since(from); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
