package wlog

import (
	"fmt"
	"sort"
)

// StampedEntry pairs a log entry with the global commit stamp its segment
// recorded. The paper notes (§II.A, footnote) that a distributed workflow
// system may store the log in segments; as long as commit times are
// distinguishable, the global log is the stamp-ordered merge.
type StampedEntry struct {
	// Stamp is the globally comparable commit time.
	Stamp float64
	// Entry is the committed execution. LSN is ignored on input; the
	// merge assigns fresh dense LSNs in stamp order.
	Entry *Entry
}

// MergeSegments reconstructs the global system log from per-node segments.
// Stamps must be unique across all segments (the paper's assumption that
// committing times are distinguishable); entries are copied, so the input
// segments remain untouched.
func MergeSegments(segments ...[]StampedEntry) (*Log, error) {
	var all []StampedEntry
	for i, seg := range segments {
		for j, se := range seg {
			if se.Entry == nil {
				return nil, fmt.Errorf("wlog: segment %d entry %d is nil", i, j)
			}
			all = append(all, se)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Stamp < all[j].Stamp })
	for i := 1; i < len(all); i++ {
		if all[i].Stamp == all[i-1].Stamp {
			return nil, fmt.Errorf("wlog: duplicate commit stamp %g (%s and %s)",
				all[i].Stamp, all[i-1].Entry.ID(), all[i].Entry.ID())
		}
	}
	merged := New()
	for _, se := range all {
		// A struct copy: Append assigns the LSN, and the cached instance
		// ID stays valid, since Run, Task and Visit come with it.
		cp := *se.Entry
		if _, err := merged.Append(&cp); err != nil {
			return nil, fmt.Errorf("wlog: merge: %w", err)
		}
	}
	return merged, nil
}

// SegmentByRun splits a log into per-run segments stamped with the original
// LSNs — the shape a de-centralized deployment would persist, with each
// processing node holding the trace of the workflows it executed.
func SegmentByRun(l *Log) map[string][]StampedEntry {
	out := make(map[string][]StampedEntry)
	for _, e := range l.Entries() {
		out[e.Run] = append(out[e.Run], StampedEntry{Stamp: float64(e.LSN), Entry: e})
	}
	return out
}
