package cluster

import (
	"time"

	"selfheal/internal/data"
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

// CheckReplica checks every list of the node's intern table against the
// entry it was interned under.
func (n *Node) CheckReplica() error {
	return n.rep.tab.Check()
}

// PauseKeys holds the keys at the stamper's admission gate, as an incident
// does; n must be the stamper.
func (n *Node) PauseKeys(keys ...string) { n.st.gate.Pause(dataKeys(keys)) }

// ReleaseKeys opens the stamper's admission gate for the keys again.
func (n *Node) ReleaseKeys(keys ...string) { n.st.gate.Release(dataKeys(keys)) }

func dataKeys(keys []string) []data.Key {
	out := make([]data.Key, len(keys))
	for i, k := range keys {
		out[i] = data.Key(k)
	}
	return out
}
