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
