package durable

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

func testEntry() *wlog.Entry {
	return &wlog.Entry{
		LSN:    42,
		Run:    "orders",
		Task:   "charge",
		Visit:  3,
		Chosen: "retry",
		Reads: wlog.ReadsOf(map[data.Key]wlog.ReadObs{
			"balance": {Value: -7, Writer: "orders:hold:1", WriterPos: 17},
			"limit":   {Value: 1000, Writer: "", WriterPos: data.InitPos},
		}),
		Writes: wlog.WritesOf(map[data.Key]data.Value{"balance": -107, "charged": 1}),
	}
}

func TestEntryRoundTrip(t *testing.T) {
	cases := []*wlog.Entry{
		testEntry(),
		{LSN: 1, Run: "r", Task: "t", Visit: 1},
		{LSN: 9, Run: "r", Task: "evil", Visit: 2, Forged: true,
			Reads:  wlog.ReadsOf(map[data.Key]wlog.ReadObs{"x": {Value: 5, Writer: "r:t:1", WriterPos: 3}}),
			Writes: wlog.WritesOf(map[data.Key]data.Value{"x": 99})},
	}
	for _, e := range cases {
		p := EncodeEntry(nil, e)
		got, err := DecodeEntry(p)
		if err != nil {
			t.Fatalf("DecodeEntry(%s): %v", e.ID(), err)
		}
		if !reflect.DeepEqual(e, got) {
			t.Errorf("entry %s round trip:\n want %+v\n got  %+v", e.ID(), e, got)
		}
	}
}

func TestEntryEncodingDeterministic(t *testing.T) {
	a := EncodeEntry(nil, testEntry())
	b := EncodeEntry(nil, testEntry())
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same entry differ")
	}
}

func TestEntryDecodeRejectsDamage(t *testing.T) {
	p := EncodeEntry(nil, testEntry())
	if _, err := DecodeEntry(p[:len(p)-1]); err == nil {
		t.Error("truncated payload decoded without error")
	}
	if _, err := DecodeEntry(append(append([]byte(nil), p...), 0)); err == nil {
		t.Error("payload with trailing byte decoded without error")
	}
	if _, err := DecodeEntry([]byte{recAck}); err == nil {
		t.Error("non-entry kind accepted by DecodeEntry")
	}
}

func TestControlRecordRoundTrips(t *testing.T) {
	init := map[data.Key]data.Value{"a": 1, "b": -2}
	spec := []byte(`{"name":"w","start":"t0","tasks":[{"id":"t0"}]}`)
	rec, err := decodeRecord(encodeSpec(nil, 7, "run-1", spec, init))
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	if rec.kind != recSpec || rec.stamp != 7 || rec.run != "run-1" ||
		!bytes.Equal(rec.spec, spec) || !reflect.DeepEqual(rec.init, init) {
		t.Errorf("spec round trip: %+v", rec)
	}

	bad := []wlog.InstanceID{"r:t:1", "r:u:2"}
	rec, err = decodeRecord(encodeAlert(nil, 9, 33, bad))
	if err != nil {
		t.Fatalf("alert: %v", err)
	}
	if rec.kind != recAlert || rec.stamp != 9 || rec.alertID != 33 || !reflect.DeepEqual(rec.bad, bad) {
		t.Errorf("alert round trip: %+v", rec)
	}

	rec, err = decodeRecord(encodeAck(nil, 11, []uint64{33, 34}))
	if err != nil {
		t.Fatalf("ack: %v", err)
	}
	if rec.kind != recAck || !reflect.DeepEqual(rec.ackIDs, []uint64{33, 34}) {
		t.Errorf("ack round trip: %+v", rec)
	}

	fronts := []RunFrontier{{Run: "r1", Cur: "t2"}, {Run: "r2", Cur: "end", Done: true}}
	chains := map[data.Key][]data.Version{
		"x": {{Pos: 1, Writer: "r1:t0:1", Value: 4}, {Pos: 5, Writer: "recovery", Value: 6, Recovery: true}},
		"y": nil, // deleted key
		"z": {{Pos: data.InitPos, Value: 1, Checkpoint: true}},
	}
	rec, err = decodeRecord(encodeAdopt(nil, 13, fronts, chains))
	if err != nil {
		t.Fatalf("adopt: %v", err)
	}
	if rec.kind != recAdopt || !reflect.DeepEqual(rec.fronts, fronts) || !reflect.DeepEqual(rec.chains, chains) {
		t.Errorf("adopt round trip:\n want %+v %+v\n got  %+v %+v", fronts, chains, rec.fronts, rec.chains)
	}
	if _, err := decodeRecord([]byte{99}); err == nil {
		t.Error("unknown record kind accepted")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := &Snapshot{
		Seq:   120,
		Epoch: 90,
		// Chains must be fixed points of CompactChain(·, Epoch): the
		// encoder persists the compacted form, and the round trip below
		// demands byte-for-byte identity.
		Chains: map[data.Key][]data.Version{
			"a": {{Pos: 90, Writer: "r:t:1", Value: 9, Checkpoint: true}, {Pos: 95, Writer: "r:t:2", Value: 12}},
			"b": {{Pos: 91, Writer: "recovery", Value: -1, Recovery: true}},
		},
		Graph: deps.Frontier{
			Epoch:      90,
			LastWriter: map[data.Key]wlog.InstanceID{"a": "r:t:1"},
			Pending:    map[data.Key][]wlog.InstanceID{"b": {"r:u:1", "r:v:2"}},
		},
		Specs: map[string]SpecState{
			"r": {JSON: []byte(`{"name":"r"}`), Init: map[data.Key]data.Value{"a": 3}},
		},
		Runs: map[string]RunState{
			"r": {Cur: "t2", Visits: map[wf.TaskID]int{"t0": 1, "t1": 2}, Status: RunActive},
			"q": {Cur: "end", Visits: map[wf.TaskID]int{}, Status: RunFailed, Err: "task boom failed"},
		},
		Tombs: map[string]Tombstone{
			"old":  {Status: RunDone},
			"oops": {Status: RunFailed, Err: "task crash failed"},
		},
		Alerts: map[uint64][]wlog.InstanceID{7: {"r:t:1"}, 9: {"r:u:1", "r:v:2"}},
	}
	body := encodeSnapshot(s)
	got, err := DecodeSnapshot(body)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Errorf("snapshot round trip:\n want %+v\n got  %+v", s, got)
	}
	if !bytes.Equal(body, encodeSnapshot(s)) {
		t.Error("two encodings of the same snapshot differ")
	}
	// The horizon reads retired runs as tombstones, whichever record kind
	// carried them, and marks the live run that has executed.
	h := got.Horizon()
	wantTombs := map[string]Tombstone{"old": {Status: RunDone}, "oops": {Status: RunFailed, Err: "task crash failed"},
		"q": {Status: RunFailed, Err: "task boom failed"}}
	if !reflect.DeepEqual(h.Tombs, wantTombs) || !reflect.DeepEqual(h.PreEpoch, map[string]bool{"r": true}) || h.Epoch != 90 {
		t.Errorf("horizon: tombs %+v, pre-epoch %v, epoch %d", h.Tombs, h.PreEpoch, h.Epoch)
	}

	// An incomplete snapshot (footer cut off) must be rejected, whether the
	// cut lands on a frame boundary or tears the last frame.
	frames, _ := SplitFrames(body)
	lastLen := frameHeader + len(frames[len(frames)-1])
	if _, err := DecodeSnapshot(body[:len(body)-lastLen]); err == nil {
		t.Error("snapshot without footer accepted")
	}
	if _, err := DecodeSnapshot(body[:len(body)-1]); err == nil {
		t.Error("snapshot with torn footer accepted")
	}
}

// goldenEntries is the fixed entry set behind testdata/entries_golden.bin:
// 0, 1, 2 and many reads and writes, a read of a missing key, a forged
// entry, a recorded choice and non-ASCII keys.
func goldenEntries() []*wlog.Entry {
	type R = map[data.Key]wlog.ReadObs
	type W = map[data.Key]data.Value
	rd, wr := wlog.ReadsOf, wlog.WritesOf
	return []*wlog.Entry{
		{LSN: 1, Run: "r", Task: "none", Visit: 1},
		{LSN: 2, Run: "r", Task: "one", Visit: 1,
			Reads:  rd(R{"a": {Value: 3, Writer: "r/none#1", WriterPos: 1}}),
			Writes: wr(W{"b": 4})},
		{LSN: 3, Run: "orders", Task: "two", Visit: 2,
			Reads:  rd(R{"limit": {Value: 1000, WriterPos: data.InitPos}, "balance": {Value: -7, Writer: "orders/hold#1", WriterPos: 17}}),
			Writes: wr(W{"charged": 1, "balance": -107})},
		{LSN: 4, Run: "wide", Task: "many", Visit: 1,
			Reads: rd(R{"k5": {Value: 5, Writer: "w/5#1", WriterPos: 5}, "k1": {Value: 1, Writer: "w/1#1", WriterPos: 1},
				"k4": {Value: 4, Writer: "w/4#1", WriterPos: 4}, "k2": {Value: 2, Writer: "w/2#1", WriterPos: 2.5},
				"k3": {Value: 3, Writer: "w/3#1", WriterPos: 3}}),
			Writes: wr(W{"o6": 6, "o1": 1, "o5": -5, "o2": 2, "o4": 1 << 40, "o3": 3})},
		{LSN: 5, Run: "r", Task: "blind", Visit: 1,
			Reads:  rd(R{"nothere": {Value: 0, WriterPos: wlog.MissingPos}}),
			Writes: wr(W{"out": 5})},
		{LSN: 6, Run: "attacker", Task: "evil", Visit: 1, Forged: true,
			Reads:  rd(R{"a": {Value: 3, Writer: "r/none#1", WriterPos: 1}}),
			Writes: wr(W{"a": -999, "zz": 1})},
		{LSN: 7, Run: "r", Task: "gate", Visit: 3, Chosen: "left",
			Reads:  rd(R{"a": {Value: -999, Writer: "attacker/evil#1", WriterPos: 6}}),
			Writes: wr(W{"gate": 1})},
		{LSN: 8, Run: "рун", Task: "задача", Visit: 1,
			Reads:  rd(R{"ключ": {Value: 7, Writer: "рун/старт#1", WriterPos: 2}, "キー": {Value: 8, WriterPos: data.InitPos}}),
			Writes: wr(W{"ключ": 9, "clé": 10})},
	}
}

// TestEntryCodecGolden pins the bytes of an entry record.
// testdata/entries_golden.bin is goldenEntries framed one per record as
// written by the EncodeEntry of commit 2596ec3 (PR 17), which held reads and
// writes in maps and sorted the keys at encode time; the slice-backed entry
// must produce the same bytes from its own order and decode them back.
func TestEntryCodecGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/entries_golden.bin")
	if err != nil {
		t.Fatal(err)
	}
	entries := goldenEntries()
	var got []byte
	for _, e := range entries {
		got = AppendFrame(got, EncodeEntry(nil, e))
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("encoding of the golden entries changed: %d bytes, golden has %d", len(got), len(golden))
	}
	payloads, valid := SplitFrames(golden)
	if valid != len(golden) || len(payloads) != len(entries) {
		t.Fatalf("golden file splits into %d frames over %d of %d bytes, want %d", len(payloads), valid, len(golden), len(entries))
	}
	for i, p := range payloads {
		e, err := DecodeEntry(p)
		if err != nil {
			t.Fatalf("golden entry %d: %v", i, err)
		}
		if !reflect.DeepEqual(e, entries[i]) {
			t.Errorf("golden entry %d decodes to\n %+v, want\n %+v", i, e, entries[i])
		}
	}
}

// A record whose keys are out of order (no writer of this repository emits
// one) still decodes to a well-formed entry; a repeated key is damage.
func TestEntryDecodeNormalizes(t *testing.T) {
	sorted := goldenEntries()[2]
	swapped := *sorted
	swapped.Reads = []wlog.Read{sorted.Reads[1], sorted.Reads[0]}
	swapped.Writes = []wlog.Write{sorted.Writes[1], sorted.Writes[0]}
	got, err := DecodeEntry(EncodeEntry(nil, &swapped))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sorted) {
		t.Errorf("unsorted record decodes to %+v, want %+v", got, sorted)
	}
	dup := *sorted
	dup.Writes = []wlog.Write{sorted.Writes[0], sorted.Writes[0]}
	if _, err := DecodeEntry(EncodeEntry(nil, &dup)); err == nil {
		t.Error("a record writing one key twice decoded without error")
	}
}
