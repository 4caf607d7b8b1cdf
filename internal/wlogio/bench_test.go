package wlogio

import (
	"bytes"
	"fmt"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/durable"
	"selfheal/internal/wlog"
)

// benchLog builds an n-entry log plus the store its writes produce — the
// same shape both snapshot codecs persist.
func benchLog(b *testing.B, n int) (*wlog.Log, *data.Store) {
	b.Helper()
	log := wlog.New()
	store := data.NewStore()
	for i := 0; i < n; i++ {
		k := data.Key(fmt.Sprintf("key-%02d", i%100))
		e := &wlog.Entry{
			Task:   "t",
			Visit:  i + 1,
			Forged: true,
			Reads:  wlog.ReadsOf(map[data.Key]wlog.ReadObs{k: {Value: data.Value(i), Writer: "w", WriterPos: float64(i)}}),
			Writes: wlog.WritesOf(map[data.Key]data.Value{k: data.Value(i + 1)}),
		}
		if _, err := log.Append(e); err != nil {
			b.Fatal(err)
		}
		store.Write(k, data.Value(i+1), float64(e.LSN), "w", false)
	}
	return log, store
}

// BenchmarkSnapshotEncode compares the JSON snapshot writer against the
// binary per-entry codec the durable WAL uses for the same entries. The gap
// is why internal/durable frames binary records on the hot append path and
// JSON stays an offline interchange format.
func BenchmarkSnapshotEncode(b *testing.B) {
	const n = 10_000
	log, store := benchLog(b, n)
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := Encode(&buf, log, store); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary-entries", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var dst []byte
			log.Range(func(e *wlog.Entry) bool {
				dst = durable.EncodeEntry(dst[:0], e)
				return true
			})
		}
	})
}

func BenchmarkSnapshotDecode(b *testing.B) {
	const n = 10_000
	log, store := benchLog(b, n)
	var buf bytes.Buffer
	if err := Encode(&buf, log, store); err != nil {
		b.Fatal(err)
	}
	doc := buf.Bytes()
	payloads := make([][]byte, 0, n)
	log.Range(func(e *wlog.Entry) bool {
		payloads = append(payloads, durable.EncodeEntry(nil, e))
		return true
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := Decode(bytes.NewReader(doc)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary-entries", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range payloads {
				if _, err := durable.DecodeEntry(p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
