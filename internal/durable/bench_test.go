package durable

import (
	"fmt"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/wlog"
)

// benchEntry builds a small, realistic entry: one read, one write, keys
// spread over 100 chains. Run-less (forged-style) entries keep the replay
// path exercised without spec bookkeeping.
func benchEntry(i int) *wlog.Entry {
	k := data.Key(fmt.Sprintf("key-%02d", i%100))
	return &wlog.Entry{
		Run:    "",
		Task:   "t",
		Visit:  i + 1,
		Forged: true,
		Reads:  wlog.ReadsOf(map[data.Key]wlog.ReadObs{k: {Value: data.Value(i), Writer: "w", WriterPos: float64(i)}}),
		Writes: wlog.WritesOf(map[data.Key]data.Value{k: data.Value(i + 1)}),
	}
}

// BenchmarkAppend measures the per-entry commit cost. "mem" is the
// in-memory system log alone (the no-durability baseline). The durable
// rows append through the WAL and demand durability every `batch` entries:
// batch=1 is the naive fsync-per-entry design the group-commit writer
// exists to avoid; larger batches amortize one fsync across the group,
// exactly as the committer's per-batch sync hook does under load.
func BenchmarkAppend(b *testing.B) {
	b.Run("mem", func(b *testing.B) {
		log := wlog.New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := log.Append(benchEntry(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, batch := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("durable/batch=%d", batch), func(b *testing.B) {
			dir := b.TempDir()
			wal, st, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer wal.Close()
			wal.AttachLog(st.Log)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Log.Append(benchEntry(i)); err != nil {
					b.Fatal(err)
				}
				if (i+1)%batch == 0 {
					if err := wal.Sync(); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := wal.Sync(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// buildReplayDir writes total entries (NoSync bulk load); if snapAt > 0, a
// snapshot is taken once snapAt entries are in, so a restore replays only
// the remaining total-snapAt records.
func buildReplayDir(b *testing.B, total, snapAt int) string {
	b.Helper()
	dir := b.TempDir()
	opts := Options{NoSync: true}
	wal, st, err := Open(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	wal.AttachLog(st.Log)
	appendN := func(log *wlog.Log, from, n int) {
		const chunk = 512
		for off := 0; off < n; off += chunk {
			m := chunk
			if n-off < m {
				m = n - off
			}
			batch := make([]*wlog.Entry, m)
			for j := 0; j < m; j++ {
				batch[j] = benchEntry(from + off + j)
			}
			if _, err := log.AppendBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	if snapAt > 0 {
		appendN(st.Log, 0, snapAt)
		if err := wal.Sync(); err != nil {
			b.Fatal(err)
		}
		if err := wal.Close(); err != nil {
			b.Fatal(err)
		}
		wal2, st2, err := Open(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := wal2.WriteSnapshot(snapshotOf(wal2, st2)); err != nil {
			b.Fatal(err)
		}
		wal2.AttachLog(st2.Log)
		appendN(st2.Log, snapAt, total-snapAt)
		if err := wal2.Sync(); err != nil {
			b.Fatal(err)
		}
		if err := wal2.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	appendN(st.Log, 0, total)
	if err := wal.Sync(); err != nil {
		b.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkReplay measures boot-time restore of a 100k-entry history.
// serial-full decodes and folds every record on one goroutine;
// parallel-full uses the chunked decode + component-parallel chain build;
// snapshot-bounded restores from a snapshot covering 90% of the history
// and replays only the 10k-record tail — the production configuration
// (automatic checkpoints keep the tail short).
func BenchmarkReplay(b *testing.B) {
	const total = 100_000
	fullDir := buildReplayDir(b, total, 0)
	snapDir := buildReplayDir(b, total, total-total/10)

	open := func(b *testing.B, dir string, opts Options, wantReplayed int) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			wal, st, err := Open(dir, opts)
			if err != nil {
				b.Fatal(err)
			}
			if st.ReplayedRecords != wantReplayed {
				b.Fatalf("replayed %d records, want %d", st.ReplayedRecords, wantReplayed)
			}
			if err := wal.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(wantReplayed), "records/op")
	}
	b.Run("serial-full", func(b *testing.B) {
		open(b, fullDir, Options{NoSync: true, ReplayParallel: 1}, total)
	})
	b.Run("parallel-full", func(b *testing.B) {
		open(b, fullDir, Options{NoSync: true}, total)
	})
	b.Run("snapshot-bounded", func(b *testing.B) {
		open(b, snapDir, Options{NoSync: true}, total/10)
	})
}
