package cluster

import (
	"fmt"
	"time"
)

// SetJournalSegmentBytes makes node journals rotate at n bytes, so a short
// test stream spans several segments; the returned func restores the default.
func SetJournalSegmentBytes(n int64) (restore func()) {
	old := journalSegmentBytes
	journalSegmentBytes = n
	return func() { journalSegmentBytes = old }
}

// SetReconcileInterval makes the reconciler look for stalled runs every d;
// the returned func restores the default.
func SetReconcileInterval(d time.Duration) (restore func()) {
	old := reconcileInterval
	reconcileInterval = d
	return func() { reconcileInterval = old }
}

// Frontier is a run's position on a node's replica (replica.Frontier), as
// one comparable value.
type Frontier struct {
	Cur      string
	Visit    int
	Done, OK bool
}

// FrontierOf returns a run's position on the node's replica.
func (n *Node) FrontierOf(run string) Frontier {
	cur, visit, done, ok := n.rep.Frontier(run)
	return Frontier{string(cur), visit, done, ok}
}

// CloseJournal closes the node's journal under it, as a failed write would
// end it: the replica keeps applying, and nothing more is journaled.
func (n *Node) CloseJournal() { n.journal.Close() }

// CheckReplica compares what the node's replica keeps derived against full
// scans: the active-run set against every run's done flag, and every list of
// its intern table against the entry it was interned under.
func (n *Node) CheckReplica() error {
	if err := n.rep.checkActive(); err != nil {
		return err
	}
	return n.rep.tab.Check()
}

// checkActive reports the first difference between the active-run set and a
// scan of every registered run.
func (r *replica) checkActive() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, rs := range r.runs {
		if _, in := r.active[id]; in == rs.done {
			return fmt.Errorf("cluster: run %s is done=%v but in the active set=%v", id, rs.done, in)
		}
	}
	for id := range r.active {
		if r.runs[id] == nil {
			return fmt.Errorf("cluster: the active set names unregistered run %s", id)
		}
	}
	return nil
}
