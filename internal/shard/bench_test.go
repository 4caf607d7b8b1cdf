package shard

import (
	"fmt"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/durable"
	"selfheal/internal/wlog"
)

// replayEntry builds a small, realistic entry: one read, one write, keys
// spread over 100 chains. Run-less (forged-style) entries keep the replay
// path exercised without spec bookkeeping.
func replayEntry(i int) *wlog.Entry {
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

// appendReplayEntries logs entries from..from+n-1 through a WAL opened on
// dir (NoSync bulk load), on a log based at the WAL's last entry.
func appendReplayEntries(b *testing.B, dir string, from, n int) {
	b.Helper()
	wal, _, err := durable.Open(dir, durable.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	log := wlog.NewAt(wal.LastLSN())
	wal.AttachLog(log)
	const chunk = 512
	for off := 0; off < n; off += chunk {
		batch := make([]*wlog.Entry, min(chunk, n-off))
		for j := range batch {
			batch[j] = replayEntry(from + off + j)
		}
		if _, err := log.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		b.Fatal(err)
	}
}

// buildReplayDir writes total entries; if snapAt > 0, a checkpoint — the
// snapshot a service booted there captures — is written once snapAt entries
// are in, so a boot replays only the remaining total-snapAt records.
func buildReplayDir(b *testing.B, total, snapAt int) string {
	b.Helper()
	dir := b.TempDir()
	if snapAt == 0 {
		appendReplayEntries(b, dir, 0, total)
		return dir
	}
	appendReplayEntries(b, dir, 0, snapAt)
	svc, err := NewDurable(Config{}, dir, durable.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.wal.WriteSnapshot(svc.gatherSnapshot()); err != nil {
		b.Fatal(err)
	}
	if err := svc.wal.Close(); err != nil {
		b.Fatal(err)
	}
	appendReplayEntries(b, dir, snapAt, total-snapAt)
	return dir
}

// BenchmarkReplay measures the boot of a durable service on a 100k-entry
// history (NewDurable: the machine restored from the snapshot, every record
// past it decoded and applied through the machine, the graph resumed).
// serial-full replays every record; snapshot-bounded boots from a snapshot
// covering 90% of the history and replays only the 10k-record tail — the
// production configuration (automatic checkpoints keep the tail short).
func BenchmarkReplay(b *testing.B) {
	const total = 100_000
	fullDir := buildReplayDir(b, total, 0)
	snapDir := buildReplayDir(b, total, total-total/10)

	boot := func(b *testing.B, dir string, wantReplayed int) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			svc, err := NewDurable(Config{}, dir, durable.Options{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			if records, _ := svc.ReplayStats(); records != wantReplayed {
				b.Fatalf("replayed %d records, want %d", records, wantReplayed)
			}
			if err := svc.wal.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(wantReplayed), "records/op")
	}
	b.Run("serial-full", func(b *testing.B) { boot(b, fullDir, total) })
	b.Run("snapshot-bounded", func(b *testing.B) { boot(b, snapDir, total/10) })
}
