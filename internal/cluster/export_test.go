package cluster

// SetJournalSegmentBytes makes node journals rotate at n bytes, so a short
// test stream spans several segments; the returned func restores the default.
func SetJournalSegmentBytes(n int64) (restore func()) {
	old := journalSegmentBytes
	journalSegmentBytes = n
	return func() { journalSegmentBytes = old }
}
