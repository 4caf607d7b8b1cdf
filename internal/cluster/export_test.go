package cluster

import "time"

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

// CloseJournal closes the node's journal under it, as a failed write would
// end it: the replica keeps applying, and nothing more is journaled.
func (n *Node) CloseJournal() { n.journal.Close() }
