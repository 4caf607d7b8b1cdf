package cluster

import (
	"testing"
	"time"

	"selfheal/internal/wfjson"
)

// heldFrames holds every append to a frame log until the test lets it
// through, announcing each one first; closing release lets every later
// append through.
type heldFrames struct {
	frameLog
	entered chan struct{}
	release chan struct{}
}

func (h *heldFrames) Append(first uint64, frames []byte, n int) error {
	h.entered <- struct{}{}
	<-h.release
	return h.frameLog.Append(first, frames, n)
}

// The stamper applies a group to its replica before the group's journal
// append and fsync, so that later records validate against earlier ones. A
// client polling the stamper must still not see a run done before the record
// completing it is durable: with every append held, the stamper reports the
// run active for as long as the append that covers its completion has not
// returned, and done after.
func TestStamperReportsDoneOnlyWhenDurable(t *testing.T) {
	n, err := New(Config{NodeID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	held := &heldFrames{frameLog: n.journal, entered: make(chan struct{}, 8), release: make(chan struct{})}
	n.journal = held
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	defer close(held.release)

	doc := &wfjson.SpecJSON{Name: "r", Start: "t0", Tasks: []wfjson.TaskJSON{
		{ID: "t0", Writes: []string{"x"}, Next: []string{"t1"}, Bias: 1},
		{ID: "t1", Reads: []string{"x"}, Writes: []string{"y"}, Bias: 2},
	}}
	errc := make(chan error, 1)
	go func() { errc <- n.SubmitRunSpec("r", doc) }()
	applied := func() bool {
		n.rep.mu.Lock()
		defer n.rep.mu.Unlock()
		rs := n.rep.m.Run("r")
		return rs != nil && rs.Done()
	}
	for complete := false; !complete; {
		select {
		case <-held.entered:
		case <-time.After(10 * time.Second):
			t.Fatal("no journal append reached the frame log")
		}
		// The append is held: whatever the replica holds is not durable yet.
		if complete = applied(); complete {
			if info, err := n.RunInfo("r"); err != nil || info.Status != "active" {
				t.Errorf("with the completing group's append held, the stamper reports %+v (%v), want active", info, err)
			}
		}
		held.release <- struct{}{}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if info, err := n.RunInfo("r"); err != nil || info.Status != "done" {
		t.Fatalf("after the append returned the stamper reports %+v (%v), want done", info, err)
	}
}
