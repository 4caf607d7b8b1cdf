package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/durable"
	"selfheal/internal/machine"
	"selfheal/internal/obs"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// sampleRecords is a short, valid stream prefix exercising every record
// kind and every codec field (reads with writer observations, choices,
// forged entries, init seeding, repairs).
func sampleRecords() []Record {
	spec := &wfjson.SpecJSON{
		Name:  "m",
		Start: "t0",
		Tasks: []wfjson.TaskJSON{
			{ID: "t0", Writes: []string{"a"}, Next: []string{"t1"}, Bias: 3},
			{ID: "t1", Reads: []string{"a"}, Writes: []string{"b"}, Bias: 7},
		},
	}
	return []Record{
		{Seq: 1, Kind: KindSpec, Origin: "n1", Run: "m", Spec: spec, Init: map[string]int64{"a": 5, "b": -2}},
		{Seq: 2, Kind: KindEntry, Origin: "n2", Entry: &wlog.Entry{
			LSN: 1, Run: "m", Task: "t0", Visit: 1,
			Writes: wlog.WritesOf(map[data.Key]data.Value{"a": 8}),
		}},
		{Seq: 3, Kind: KindEntry, Origin: "n1", Entry: &wlog.Entry{
			LSN: 2, Run: "m", Task: "t1", Visit: 1,
			Reads:  wlog.ReadsOf(map[data.Key]wlog.ReadObs{"a": {Value: 8, Writer: "m/t0#1", WriterPos: 1}}),
			Writes: wlog.WritesOf(map[data.Key]data.Value{"b": 15}),
			Chosen: "t1",
		}},
		{Seq: 4, Kind: KindEntry, Origin: "n3", Entry: &wlog.Entry{
			LSN: 3, Run: "ghost", Task: "f", Visit: 1, Forged: true,
			Reads:  wlog.ReadsOf(map[data.Key]wlog.ReadObs{"b": {Value: 15, Writer: "m/t1#1", WriterPos: 2}}),
			Writes: wlog.WritesOf(map[data.Key]data.Value{"b": -999}),
		}},
		{Seq: 5, Kind: KindRepair, Origin: "n1", Bad: []wlog.InstanceID{"ghost/f#1"}},
	}
}

// The binary codec must round-trip every record kind exactly (Spec compares
// through its JSON form: the document is embedded as JSON bytes), and the
// body of an entry record must be durable's entry body: the WAL's own
// decoder reads it, LSN included, and the WAL's encoder produces it. An
// adopt record's body is durable's adopt body followed by its counts.
func TestRecordCodecRoundTrip(t *testing.T) {
	adopt := Record{Seq: 6, Kind: KindAdopt, Origin: "n0", Adopt: &machine.Effect{
		Adopt: durable.Adopt{
			Fronts: []durable.RunFrontier{{Run: "m", Cur: "t1"}, {Run: "n", Done: true}},
			Chains: map[data.Key][]data.Version{
				"b":    {{Pos: 1, Writer: "m/t0#1", Value: 8}, {Pos: 2.5, Writer: "m/t1#1", Value: 3, Recovery: true}},
				"gone": nil,
			},
		},
		Undone: 2, Redone: 1, NewExecuted: 1,
	}}
	for _, rec := range append(sampleRecords(), adopt) {
		payload := encodeRecord(nil, &rec)
		if rec.Kind == KindAdopt && !bytes.HasSuffix(payload, append(durable.AppendAdoptBody(nil, rec.Adopt.Adopt), 2, 1, 1)) {
			t.Fatalf("record %d: adopt body is not durable's adopt body and the counts", rec.Seq)
		}
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("decode record %d: %v", rec.Seq, err)
		}
		wantJSON, _ := json.Marshal(rec)
		gotJSON, _ := json.Marshal(got)
		if string(wantJSON) != string(gotJSON) {
			t.Fatalf("record %d round-trip mismatch:\nwant %s\ngot  %s", rec.Seq, wantJSON, gotJSON)
		}
		if rec.Kind != KindEntry {
			continue
		}
		if !reflect.DeepEqual(rec.Entry, got.Entry) {
			t.Fatalf("record %d: entry round-trip mismatch:\nwant %+v\ngot  %+v", rec.Seq, rec.Entry, got.Entry)
		}
		walRecord := durable.EncodeEntry(nil, rec.Entry) // kind byte + body
		body := walRecord[1:]
		if !bytes.HasSuffix(payload, body) {
			t.Fatalf("record %d: entry body is not durable's entry body", rec.Seq)
		}
		header := payload[:len(payload)-len(body)]
		e, err := durable.DecodeEntry(append(walRecord[:1:1], payload[len(header):]...))
		if err != nil || !reflect.DeepEqual(e, rec.Entry) {
			t.Fatalf("record %d: durable.DecodeEntry of the cluster body: %+v, %v", rec.Seq, e, err)
		}
	}
}

// The JSON form of a record — the curl-able commits document — keeps the
// EntryJSON shape, and decoding it yields the same entry minus the LSN,
// which JSON does not carry.
func TestRecordJSONBoundary(t *testing.T) {
	rec := sampleRecords()[2]
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"seq":3,"kind":"entry","origin":"n1","entry":{"run":"m","task":"t1","visit":1,` +
		`"reads":{"a":{"value":8,"writer":"m/t0#1","writer_pos":1}},"writes":{"b":15},"chosen":"t1"}}`
	if string(b) != want {
		t.Fatalf("record JSON:\n got %s\nwant %s", b, want)
	}
	var back Record
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	wantEntry := *rec.Entry
	wantEntry.LSN = 0
	if back.Seq != 3 || back.Kind != KindEntry || !reflect.DeepEqual(back.Entry, &wantEntry) {
		t.Fatalf("record JSON round trip: %+v (entry %+v)", back, back.Entry)
	}
}

// wireBody frames recs as one replication body, the bytes the stamper's
// journal holds for them.
func wireBody(recs []Record) []byte {
	var b []byte
	for i := range recs {
		b = encodeFramedRecord(b, &recs[i])
	}
	return b
}

// newFollower returns an unstarted follower of a two-member cluster (n0 is
// the stamper), journaled in dir when dir is set.
func newFollower(t testing.TB, dir string) *Node {
	t.Helper()
	n, err := New(Config{NodeID: "n1", Peers: map[string]string{"n0": "", "n1": ""}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n
}

// A wire body is all-or-nothing and travels verbatim: a follower applies the
// whole body and then serves exactly the bytes it received, and any flipped
// byte fails the whole body before a single record applies.
func TestWireRecordsRoundTripAndCorruption(t *testing.T) {
	recs := sampleRecords()
	body := wireBody(recs)
	n := newFollower(t, "")
	if err := n.applyFrames(body); err != nil {
		t.Fatalf("apply wire body: %v", err)
	}
	if got := n.rep.Applied(); got != len(recs) {
		t.Fatalf("wire body applied %d records, want %d", got, len(recs))
	}
	if served, err := n.framesAfter(0, len(recs)); err != nil || !bytes.Equal(served, body) {
		t.Fatalf("the follower serves %d bytes (%v), not the %d it received", len(served), err, len(body))
	}
	for i := 0; i < len(body); i += 7 {
		mut := append([]byte(nil), body...)
		mut[i] ^= 0x40
		n := newFollower(t, "")
		err := n.applyFrames(mut)
		applied := n.rep.Applied()
		if errors.Is(err, errCorruptBody) && applied != 0 {
			t.Fatalf("byte flip at %d: corrupt body applied %d records", i, applied)
		}
		// A flip may hit a frame's length field such that the remaining
		// bytes still parse as valid frames with intact CRCs — but then the
		// records' seqs cannot stay 1..N dense. Accept only that.
		if err == nil && applied == len(recs) {
			t.Fatalf("byte flip at %d went completely undetected", i)
		}
	}
}

// writeJournal writes payloads as node n1's journal in dir, one record per
// append, through the segment log.
func writeJournal(t *testing.T, dir string, payloads [][]byte) {
	t.Helper()
	j, _, err := durable.OpenSegmentLog(dir, "n1.wal-", 1, durable.Options{})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	for i, p := range payloads {
		if err := j.Append(uint64(i+1), durable.AppendFrame(nil, p), 1); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func samplePayloads() [][]byte {
	var out [][]byte
	for _, rec := range sampleRecords() {
		out = append(out, encodeRecord(nil, &rec))
	}
	return out
}

// Boot replays the journal through the shared segment log: the sample
// stream (spec, entries, forge, repair) restores to the applied position
// and to the store the repair leaves, and the files sit directly in the
// directory under the "<node-id>." prefix.
func TestJournalReplay(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, samplePayloads())
	n, err := New(Config{NodeID: "n1", Dir: dir})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	defer n.Stop()
	if got := n.rep.Applied(); got != 5 {
		t.Fatalf("replayed to %d, want 5", got)
	}
	if got := n.StoreSnapshot(); got["a"] != 8 || got["b"] != 15 {
		t.Fatalf("store after replay: %v, want a=8 b=15 (forged write repaired)", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "n1.wal-0000000000000001.seg")); err != nil {
		t.Fatalf("journal segment: %v", err)
	}
}

// A frame that passes its CRC was written whole: one that decodes to a seq
// other than its position, or does not decode, is not a torn tail and must
// fail the boot rather than be truncated away.
func TestJournalRefusesSeqGapAndGarbage(t *testing.T) {
	good := samplePayloads()
	gap := append(append([][]byte(nil), good[:2]...), good[3])
	garbage := append(append([][]byte(nil), good[:2]...), []byte{recEntry, 3})
	for name, payloads := range map[string][][]byte{"seq gap": gap, "undecodable": garbage} {
		dir := t.TempDir()
		writeJournal(t, dir, payloads)
		if n, err := New(Config{NodeID: "n1", Dir: dir}); err == nil {
			n.Stop()
			t.Fatalf("%s: boot succeeded", name)
		} else if !strings.Contains(err.Error(), "3") {
			t.Fatalf("%s: error does not name the position: %v", name, err)
		}
	}
}

// A journal file of an earlier format is neither migrated nor ignored: the
// boot fails with an error naming it.
func TestLeftoverJournalRefusesBoot(t *testing.T) {
	for _, name := range []string{"n1.rjournal", "n1.journal"} {
		dir := t.TempDir()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		if n, err := New(Config{NodeID: "n1", Dir: dir}); err == nil {
			n.Stop()
			t.Fatalf("%s: boot succeeded", name)
		} else if !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: error does not name the file: %v", name, err)
		}
		// Another member's leftover is not this node's business.
		if n, err := New(Config{NodeID: "n2", Peers: map[string]string{"n1": "", "n2": ""}, Dir: dir}); err != nil {
			t.Fatalf("n2 refused over %s: %v", name, err)
		} else {
			n.Stop()
		}
	}
}

// One journal error policy: after a follower's journal append fails, the
// replica keeps applying but nothing more is journaled — so the journal
// never holds a record after a hole — every record left out is counted,
// and the next boot replays exactly the prefix.
func TestFollowerJournalFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	peers := map[string]string{"n0": "", "n1": ""} // n0 is the stamper
	n, err := New(Config{NodeID: "n1", Peers: peers, Dir: dir, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := n.applyFrames(wireBody(recs[:2])); err != nil {
		t.Fatal(err)
	}
	n.journal.Close() // every later append fails
	for i := range recs[2:] {
		if err := n.applyFrames(wireBody(recs[2+i : 3+i])); err != nil {
			t.Fatalf("apply after journal failure: %v", err)
		}
	}
	if got := n.rep.Applied(); got != 5 {
		t.Fatalf("replica stopped at %d, want 5", got)
	}
	if got := reg.Snapshot()[obs.MClusterJournalErrors]; got != 3 {
		t.Fatalf("%s = %v, want 3", obs.MClusterJournalErrors, got)
	}
	if got := n.servable(); got != 2 {
		t.Fatalf("the follower serves up to record %d past its 2-record journal", got)
	}
	n.Stop()
	n2, err := New(Config{NodeID: "n1", Peers: peers, Dir: dir})
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	defer n2.Stop()
	if got := n2.rep.Applied(); got != 2 {
		t.Fatalf("journal replayed to %d, want the 2-record prefix", got)
	}
}

// ---- replication codec benchmarks ----

func benchRecords(n int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, Record{
			Seq: i + 1, Kind: KindEntry, Origin: "n2",
			Entry: &wlog.Entry{
				LSN: i + 1, Run: "bench", Task: "t", Visit: i + 1,
				Reads:  wlog.ReadsOf(map[data.Key]wlog.ReadObs{"k1": {Value: data.Value(i), Writer: "bench/t#1", WriterPos: float64(i)}}),
				Writes: wlog.WritesOf(map[data.Key]data.Value{"k1": data.Value(i), "k2": data.Value(-i)}),
			},
		})
	}
	return recs
}

// BenchmarkReplicationCodecBinary measures encode+decode of a 256-record
// replication body in the CRC-framed binary codec; ...JSON is the PR-8
// wire format it replaced. b.ReportMetric emits bytes per record.
func BenchmarkReplicationCodecBinary(b *testing.B) {
	recs := benchRecords(256)
	var bytesPerRec float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := wireBody(recs)
		payloads, _ := durable.SplitFrames(body)
		for _, p := range payloads {
			if _, err := decodeRecord(p); err != nil {
				b.Fatal(err)
			}
		}
		if len(payloads) != len(recs) {
			b.Fatalf("round trip: %d records", len(payloads))
		}
		bytesPerRec = float64(len(body)) / float64(len(recs))
	}
	b.ReportMetric(bytesPerRec, "bytes/record")
}

func BenchmarkReplicationCodecJSON(b *testing.B) {
	recs := benchRecords(256)
	var bytesPerRec float64
	b.ResetTimer()
	type doc struct {
		Records []Record `json:"records"`
	}
	for i := 0; i < b.N; i++ {
		body, err := json.Marshal(doc{Records: recs})
		if err != nil {
			b.Fatal(err)
		}
		var back doc
		if err := json.Unmarshal(body, &back); err != nil || len(back.Records) != len(recs) {
			b.Fatalf("round trip: %d records, err %v", len(back.Records), err)
		}
		bytesPerRec = float64(len(body)) / float64(len(recs))
	}
	b.ReportMetric(bytesPerRec, "bytes/record")
}

// randomEntry returns a well-formed entry (LSN unassigned) with 0–4 reads and
// 0–4 writes over a small key pool, some reads of missing keys.
func randomEntry(rng *rand.Rand, i int) *wlog.Entry {
	e := &wlog.Entry{Run: fmt.Sprintf("r%d", rng.Intn(3)), Task: "t", Visit: i + 1, Forged: rng.Intn(5) == 0}
	if rng.Intn(4) == 0 {
		e.Chosen = "next"
	}
	reads := make(map[data.Key]wlog.ReadObs)
	for n := rng.Intn(5); len(reads) < n; {
		obs := wlog.ReadObs{WriterPos: wlog.MissingPos}
		if rng.Intn(4) > 0 {
			obs = wlog.ReadObs{Value: data.Value(rng.Int63n(2000) - 1000), Writer: fmt.Sprintf("w/t#%d", rng.Intn(9)+1), WriterPos: float64(rng.Intn(100)) + 0.5}
		}
		reads[data.Key(fmt.Sprintf("k%d", rng.Intn(12)))] = obs
	}
	writes := make(map[data.Key]data.Value)
	for n := rng.Intn(5); len(writes) < n; {
		writes[data.Key(fmt.Sprintf("k%d", rng.Intn(12)))] = data.Value(rng.Int63n(2000) - 1000)
	}
	e.Reads, e.Writes = wlog.ReadsOf(reads), wlog.WritesOf(writes)
	return e
}

// An entry survives every boundary a record crosses — the EntryJSON struct,
// the JSON text and the binary codec — with its reads and writes in key
// order, whatever order a JSON object's members arrive in.
func TestEntryBoundariesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 300; i++ {
		e := randomEntry(rng, i)
		if got := EntryToJSON(e).ToEntry(); !reflect.DeepEqual(got, e) {
			t.Fatalf("EntryJSON round trip:\n got %+v\nwant %+v", got, e)
		}
		rec := Record{Seq: i + 1, Kind: KindEntry, Origin: "n", Entry: e}
		text, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var back Record
		if err := json.Unmarshal(text, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Entry, e) {
			t.Fatalf("JSON text round trip of %s:\n got %+v\nwant %+v", text, back.Entry, e)
		}
		bin, err := decodeRecord(encodeRecord(nil, &rec))
		if err != nil || !reflect.DeepEqual(bin.Entry, e) {
			t.Fatalf("binary round trip: %+v, %v\nwant %+v", bin.Entry, err, e)
		}
	}

	var rec Record
	unsorted := `{"seq":1,"kind":"entry","entry":{"task":"t","visit":1,` +
		`"reads":{"z":{"value":1,"writer_pos":0},"a":{"value":2,"writer":"w/t#1","writer_pos":3},"m":{"value":0,"writer_pos":-1}},` +
		`"writes":{"y":1,"b":2,"q":3}}}`
	if err := json.Unmarshal([]byte(unsorted), &rec); err != nil {
		t.Fatal(err)
	}
	want := &wlog.Entry{Task: "t", Visit: 1,
		Reads: []wlog.Read{
			{Key: "a", ReadObs: wlog.ReadObs{Value: 2, Writer: "w/t#1", WriterPos: 3}},
			{Key: "m", ReadObs: wlog.ReadObs{WriterPos: wlog.MissingPos}},
			{Key: "z", ReadObs: wlog.ReadObs{Value: 1}},
		},
		Writes: []wlog.Write{{Key: "b", Value: 2}, {Key: "q", Value: 3}, {Key: "y", Value: 1}},
	}
	if !reflect.DeepEqual(rec.Entry, want) {
		t.Fatalf("unsorted JSON object decodes to %+v, want %+v", rec.Entry, want)
	}
}
