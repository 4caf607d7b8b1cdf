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
// as concurrent commits waiting on one sync do under load.
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
			wal, _, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer wal.Close()
			log := wlog.New()
			wal.AttachLog(log)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := log.Append(benchEntry(i)); err != nil {
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
