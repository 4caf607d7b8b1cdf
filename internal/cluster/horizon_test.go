package cluster

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"selfheal/internal/engine"
	"selfheal/internal/recovery"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// A repair record naming an instance beneath the horizon — an alert that
// raced the checkpoint — is refused by the replica that applies it, with
// the typed horizon error, counted, and without touching the store.
func TestReplicaRefusesRepairBelowHorizon(t *testing.T) {
	recs := sampleRecords()
	recs = append(recs,
		Record{Seq: 6, Kind: KindCheckpoint, Origin: "n0"},
		Record{Seq: 7, Kind: KindRepair, Origin: "n0", Bad: []wlog.InstanceID{"m/t1#1"}})
	n := newFollower(t, t.TempDir())
	if err := n.applyFrames(wireBody(recs[:6])); err != nil {
		t.Fatal(err)
	}
	before := n.StoreSnapshot()
	if !n.rep.Retired("m") || n.rep.HasInstance("m/t1#1") || !n.rep.state().BelowHorizon("m/t1#1") {
		t.Fatalf("the checkpoint did not retire run m beneath the horizon")
	}
	if err := n.applyFrames(wireBody(recs[6:])); err != nil {
		t.Fatal(err)
	}
	st := n.rep.tally.Counts()
	if st.Units != 1 || st.Errors != 1 || !errors.Is(st.LastErr, recovery.ErrHorizon) {
		t.Fatalf("repair accounting %+v, want the second repair refused with ErrHorizon", st)
	}
	if after := n.StoreSnapshot(); !equalStores(before, after) {
		t.Fatalf("a refused repair changed the store: %v → %v", before, after)
	}
}

func equalStores(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// On the stamper, a repair naming an instance a checkpoint has since buried
// is refused where it is computed: the stamper answers its incident worker
// with the typed horizon error and stamps nothing, so the stream position
// and the store stay as they were; one naming an instance that never
// existed is refused as unknown.
func TestStamperRefusesRepairBelowHorizon(t *testing.T) {
	n, err := New(Config{NodeID: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	doc := &wfjson.SpecJSON{Name: "r", Start: "t0", Tasks: []wfjson.TaskJSON{{ID: "t0", Writes: []string{"k"}, Bias: 4}}}
	if err := n.SubmitRunSpec("r", doc); err != nil {
		t.Fatal(err)
	}
	if err := n.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	applied, before := n.rep.Applied(), n.StoreSnapshot()
	if _, err := n.st.SubmitRepair("s", []wlog.InstanceID{"ghost/t0#1"}); !errors.Is(err, engine.ErrUnknownRun) {
		t.Fatalf("a repair naming an instance that never ran: %v, want ErrUnknownRun", err)
	}
	if _, err := n.st.SubmitRepair("s", []wlog.InstanceID{"r/t0#1"}); !errors.Is(err, recovery.ErrHorizon) {
		t.Fatalf("a repair naming a buried instance: %v, want ErrHorizon", err)
	}
	if got := n.rep.Applied(); got != applied {
		t.Fatalf("the refused repairs moved the stream from record %d to %d", applied, got)
	}
	if after := n.StoreSnapshot(); !equalStores(before, after) {
		t.Fatalf("a refused repair changed the store: %v → %v", before, after)
	}
}

// An in-memory frame log keeps the records since the snapshot before the
// latest, like a journal: a checkpoint drops what the previous one covered.
func TestMemFramesCheckpointRetiresPrevious(t *testing.T) {
	m := newMemFrames()
	var all []byte
	for i := 1; i <= 10; i++ {
		frame := encodeFramedRecord(nil, &Record{Seq: i, Kind: KindRepair, Bad: []wlog.InstanceID{"x/t#1"}})
		all = append(all, frame...)
		if err := m.Append(uint64(i), frame, 1); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 4:
			if err := m.Checkpoint(4, []byte("snap4")); err != nil {
				t.Fatal(err)
			}
		case 8:
			if err := m.Checkpoint(8, []byte("snap8")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m.First() != 5 || m.Next() != 11 {
		t.Fatalf("frames %d..%d held, want 5..10", m.First(), m.Next()-1)
	}
	if snap, _ := m.Snapshot(); string(snap) != "snap8" {
		t.Fatalf("latest snapshot %q", snap)
	}
	if _, _, err := m.ReadFrames(4, 1); err == nil {
		t.Fatalf("record 4, beneath the previous snapshot, is still served")
	}
	got, n, err := m.ReadFrames(5, 100)
	if err != nil || n != 6 || !bytes.Equal(got, bytes.Join(splitAll(all)[4:], nil)) {
		t.Fatalf("records 5..10: %d records, %v", n, err)
	}
	if err := m.Install(20, []byte("peer")); err != nil || m.First() != 21 || m.Next() != 21 {
		t.Fatalf("install: first %d next %d, %v", m.First(), m.Next(), err)
	}
}

// splitAll returns each frame of b, header included.
func splitAll(b []byte) [][]byte {
	var out [][]byte
	for len(b) > 0 {
		n := 8 + int(uint32(b[0])|uint32(b[1])<<8|uint32(b[2])<<16|uint32(b[3])<<24)
		out = append(out, b[:n])
		b = b[n:]
	}
	return out
}
