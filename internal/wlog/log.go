// Package wlog implements the workflow system log of §II.A: the commit-
// ordered sequence of task executions across all concurrently processed
// workflows. Each entry records the exact versions a task read (so data
// dependencies can be computed precisely, §II.C), the values it wrote, and —
// for choice nodes — the successor it selected (so control-dependence
// recovery can re-check the execution path, §III.B).
//
// The log is an instrumentation point of the observability layer
// (internal/obs, docs/OBSERVABILITY.md): Observe wires an append counter, a
// length gauge, and the cumulative time spent in OnAppend commit hooks —
// the maintenance cost of the incremental dependence graph. Instrumentation
// is off (and free beyond a nil check) until Observe is called.
package wlog

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/obs"
	"selfheal/internal/wf"
)

// InstanceID uniquely names one execution of a task: run, task and visit
// number (t_i^k in the paper's notation).
type InstanceID string

// FormatInstance builds the canonical instance ID "run/task#visit".
func FormatInstance(run string, task wf.TaskID, visit int) InstanceID {
	return InstanceID(run + "/" + string(task) + "#" + strconv.Itoa(visit))
}

// ParseInstance splits a canonical instance ID back into its run, task and
// visit parts, validating the "run/task#visit" shape FormatInstance emits:
// a non-empty run (everything before the first '/'), a non-empty task, and
// a positive decimal visit after the last '#'. It is the syntactic gate the
// alert-admission path uses to tell a malformed ID (400) from a well-formed
// ID that simply is not in the log (404).
func ParseInstance(id InstanceID) (run string, task wf.TaskID, visit int, err error) {
	s := string(id)
	slash := strings.Index(s, "/")
	if slash <= 0 {
		return "", "", 0, fmt.Errorf("wlog: instance %q: want run/task#visit", s)
	}
	hash := strings.LastIndex(s, "#")
	if hash < slash+2 || hash == len(s)-1 {
		return "", "", 0, fmt.Errorf("wlog: instance %q: want run/task#visit", s)
	}
	visit, err = strconv.Atoi(s[hash+1:])
	if err != nil || visit < 1 {
		return "", "", 0, fmt.Errorf("wlog: instance %q: visit must be a positive integer", s)
	}
	return s[:slash], wf.TaskID(s[slash+1 : hash]), visit, nil
}

// ReadObs records one observed read: the value and the identity of the
// version that supplied it. WriterPos < data.InitPos (i.e. MissingPos) means
// the key had no version at all and the read defaulted to zero.
type ReadObs struct {
	Value     data.Value
	Writer    string  // instance ID of the writing task; "" for initial versions
	WriterPos float64 // position of the observed version
}

// MissingPos is the WriterPos recorded when a read found no version.
const MissingPos = -1.0

// Read is one element of Entry.Reads: a key and what the task observed there.
type Read struct {
	Key data.Key
	ReadObs
}

// Write is one element of Entry.Writes: a key and the value committed to it.
type Write struct {
	Key   data.Key
	Value data.Value
}

// ReadsOf returns m as the key-sorted slice an Entry holds (nil for an empty
// map): the constructor for map-shaped input, tests above all.
func ReadsOf(m map[data.Key]ReadObs) []Read {
	var out []Read
	for k, o := range m {
		out = append(out, Read{Key: k, ReadObs: o})
	}
	slices.SortFunc(out, cmpRead)
	return out
}

// WritesOf is ReadsOf for the write set.
func WritesOf(m map[data.Key]data.Value) []Write {
	var out []Write
	for k, v := range m {
		out = append(out, Write{Key: k, Value: v})
	}
	slices.SortFunc(out, cmpWrite)
	return out
}

func cmpRead(a, b Read) int   { return strings.Compare(string(a.Key), string(b.Key)) }
func cmpWrite(a, b Write) int { return strings.Compare(string(a.Key), string(b.Key)) }

// Entry is one committed task execution.
type Entry struct {
	// LSN is the commit sequence number (1-based, dense, ascending).
	LSN int
	// Run identifies the workflow instance; empty for standalone forged
	// tasks injected outside any workflow.
	Run string
	// Task and Visit identify the task instance within the run.
	Task  wf.TaskID
	Visit int
	// Forged marks a task injected by the attacker that is not part of
	// the workflow specification at all. Forged tasks are undone, never
	// redone.
	Forged bool
	// Reads holds the observed version of each key read, and Writes the
	// committed value of each key written: both sorted by key, each key
	// once. Whoever builds an entry establishes that order (ReadsOf and
	// WritesOf for map-shaped input; Append checks it, see Normalize), and
	// every consumer — the dependence fold, the codec, recovery — relies on
	// it instead of sorting again.
	Reads  []Read
	Writes []Write
	// Chosen is the successor a choice node selected; empty otherwise.
	Chosen wf.TaskID

	// id caches the formatted instance ID (CacheID); a struct copy carries
	// it along, which stays valid because Run, Task and Visit are copied
	// with it.
	id InstanceID
}

// Read returns what the entry observed when it read k. The scan is linear:
// a task reads a handful of keys.
func (e *Entry) Read(k data.Key) (ReadObs, bool) {
	for i := range e.Reads {
		if e.Reads[i].Key == k {
			return e.Reads[i].ReadObs, true
		}
	}
	return ReadObs{}, false
}

// Wrote returns the value the entry committed to k.
func (e *Entry) Wrote(k data.Key) (data.Value, bool) {
	for _, w := range e.Writes {
		if w.Key == k {
			return w.Value, true
		}
	}
	return 0, false
}

// Normalize establishes the order Reads and Writes promise. Sorting a short
// slice that is already in order costs one pass of comparisons; an unsorted
// one (a literal, a foreign file) is sorted in place, and a key listed twice
// is an error — no element is the obviously right one to keep. Like CacheID
// it may only be called by the owner of a not yet published entry.
func (e *Entry) Normalize() error {
	slices.SortFunc(e.Reads, cmpRead)
	slices.SortFunc(e.Writes, cmpWrite)
	for i := 1; i < len(e.Reads); i++ {
		if e.Reads[i-1].Key == e.Reads[i].Key {
			return fmt.Errorf("wlog: %s reads key %q twice", e.ID(), e.Reads[i].Key)
		}
	}
	for i := 1; i < len(e.Writes); i++ {
		if e.Writes[i-1].Key == e.Writes[i].Key {
			return fmt.Errorf("wlog: %s writes key %q twice", e.ID(), e.Writes[i].Key)
		}
	}
	return nil
}

// ID returns the entry's instance ID: the string cached by CacheID or by the
// log at Append, otherwise (a literal Entry no log has seen) formatted on
// demand without being retained, so ID never writes to a shared entry.
func (e *Entry) ID() InstanceID {
	if e.id != "" {
		return e.id
	}
	return FormatInstance(e.Run, e.Task, e.Visit)
}

// CacheID formats the entry's instance ID once and keeps it, so the log's
// lookups, the dependence graph and the store's versions all share one
// string per committed instance. Only the goroutine that owns a not yet
// published entry may call it (the engine while preparing a step; the log,
// under its lock, for entries that arrive without one); Run, Task and Visit
// must not change afterwards.
func (e *Entry) CacheID() InstanceID {
	if e.id == "" {
		e.id = FormatInstance(e.Run, e.Task, e.Visit)
	}
	return e.id
}

// Log is the append-only system log. Safe for concurrent use.
type Log struct {
	mu sync.RWMutex
	// base is the LSN of the last entry truncated away beneath this log
	// (0 for a complete log): entries holds LSNs base+1..base+len(entries).
	base    int
	entries []*Entry
	// byRun indexes entries per run (forged included), in LSN order: the
	// log's one lookup structure. Trace and Succ are O(run length) instead
	// of O(log length), and an instance is found through its run (find).
	byRun map[string][]*Entry
	// hooks are commit observers registered via OnAppend.
	hooks []func(*Entry)
	// o holds the optional instrumentation (Observe); zero means off, and
	// the nil-safe obs primitives make every update a no-op.
	o logObs
}

// logObs is the log's instrumentation: commit counter, current length, and
// the cumulative time spent in commit hooks (the incremental dependence
// maintenance cost the EXPERIMENTS.md append benchmark measures).
type logObs struct {
	appends     *obs.Counter
	entries     *obs.Gauge
	hookSeconds *obs.Sum
}

// Observe wires the log's instrumentation into reg (see docs/OBSERVABILITY.md
// for the metric catalog). A nil registry leaves instrumentation off — the
// default, which keeps Append at its uninstrumented cost.
func (l *Log) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.o = logObs{
		appends:     reg.Counter(obs.MWlogAppends),
		entries:     reg.Gauge(obs.MWlogEntries),
		hookSeconds: reg.Sum(obs.MWlogHookSeconds),
	}
	l.o.entries.Set(int64(len(l.entries)))
}

// New returns an empty log.
func New() *Log {
	return NewAt(0)
}

// NewAt returns an empty log whose first appended entry will receive LSN
// base+1. A nonzero base reconstructs a log whose prefix has been truncated
// at a durable-snapshot boundary (internal/durable): the entries at or below
// base live only inside the snapshot's store state, so lookups for them miss
// and traces cover only the suffix — exactly the compaction semantics of
// data.Store.CompactBefore, applied to the log.
func NewAt(base int) *Log {
	if base < 0 {
		base = 0
	}
	return &Log{base: base, byRun: make(map[string][]*Entry)}
}

// TruncateBefore drops every entry at or below lsn in place, turning the log
// into the one NewAt(lsn) plus the same suffix would build: the base moves to
// lsn, lookups for dropped instances miss and traces cover only the suffix.
// OnAppend hooks stay registered. A Go map keeps its peak size after
// deletes, so when most of the log goes (a snapshot at the head) the run
// index is rebuilt from the suffix, to release the prefix; when most stays
// (a horizon trailing the head) the dropped slots are cleared and the
// slices resliced past them, at a cost that follows what is dropped —
// append's growth later moves what is kept off the old arrays. A checkpoint
// calls it once nothing needs the prefix any more.
func (l *Log) TruncateBefore(lsn int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := min(lsn-l.base, len(l.entries))
	if n <= 0 {
		return
	}
	l.base += n
	if len(l.entries)-n < n {
		l.entries = slices.Clone(l.entries[n:])
		l.byRun = make(map[string][]*Entry)
		for _, e := range l.entries {
			l.byRun[e.Run] = append(l.byRun[e.Run], e)
		}
	} else {
		// A run's entries are in LSN order, so each dropped entry is the
		// front of its run's list when its turn comes. Dropped slots are
		// cleared so the arrays no longer hold on to them.
		for _, e := range l.entries[:n] {
			seq := l.byRun[e.Run]
			seq[0] = nil
			l.setRun(e.Run, seq[1:])
		}
		clear(l.entries[:n])
		l.entries = l.entries[n:]
	}
	l.o.entries.Set(int64(len(l.entries)))
}

// setRun stores seq as run's resident entries, and forgets the run once it
// has none, so Runs lists only runs the log holds.
func (l *Log) setRun(run string, seq []*Entry) {
	if len(seq) == 0 {
		delete(l.byRun, run)
		return
	}
	l.byRun[run] = seq
}

// Append commits e, assigning the next LSN. It returns the assigned LSN and
// rejects duplicate instance IDs.
func (l *Log) Append(e *Entry) (int, error) {
	return l.AppendBatch([]*Entry{e})
}

// AppendBatch is the group-commit path: it commits the entries in order
// under a single lock acquisition, assigning dense consecutive LSNs, and
// runs the OnAppend hooks entry by entry in LSN order — so a hook-fed
// consumer (the incremental dependence graph) observes exactly the same
// sequence a series of single Appends would have produced, while the
// per-commit lock and hook-dispatch overhead is amortized across the batch.
// The batch is atomic with respect to duplicates: if any entry's instance
// ID collides with a committed entry or with an earlier entry of the same
// batch, nothing is appended. An entry whose Reads or Writes arrive out of
// key order is normalised here, under the lock, before anything can see it;
// one that lists a key twice rejects the batch the same way (Normalize). It
// returns the LSN assigned to the first entry (0 for an empty batch).
func (l *Log) AppendBatch(entries []*Entry) (int, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Index first: a collision with a committed entry or with an earlier
	// entry of this batch is found through its run, and the batch's own
	// entries are taken off their runs' tails again, last first, so nothing
	// is appended.
	for i, e := range entries {
		id := e.CacheID()
		err := e.Normalize()
		if l.find(id) != nil {
			err = fmt.Errorf("wlog: duplicate instance %s", id)
		}
		if err != nil {
			for j := i - 1; j >= 0; j-- {
				seq := l.byRun[entries[j].Run]
				seq[len(seq)-1] = nil
				l.setRun(entries[j].Run, seq[:len(seq)-1])
			}
			return 0, err
		}
		l.byRun[e.Run] = append(l.byRun[e.Run], e)
	}
	first := l.base + len(l.entries) + 1
	for i, e := range entries {
		e.LSN = first + i
		l.entries = append(l.entries, e)
	}
	l.o.appends.Add(int64(len(entries)))
	l.o.entries.Set(int64(len(l.entries)))
	var hookStart time.Time
	if l.o.hookSeconds != nil {
		hookStart = time.Now()
	}
	for _, e := range entries {
		for _, h := range l.hooks {
			h(e)
		}
	}
	if l.o.hookSeconds != nil {
		l.o.hookSeconds.Add(time.Since(hookStart).Seconds())
	}
	return first, nil
}

// OnAppend registers fn as a commit observer: it is first invoked, in LSN
// order, for every entry already committed, and then synchronously for each
// future Append, still in LSN order. Registration and catch-up are atomic
// with respect to concurrent appends, so observers never miss or reorder an
// entry. fn runs while the log's lock is held and must not call back into
// the log. The incremental dependence graph (internal/deps) is the primary
// consumer.
func (l *Log) OnAppend(fn func(*Entry)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.entries {
		fn(e)
	}
	l.hooks = append(l.hooks, fn)
}

// Len returns the highest assigned LSN: the number of entries ever
// committed, including any truncated prefix beneath a base offset (NewAt).
// For a complete log this is simply the entry count.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.base + len(l.entries)
}

// Base returns the LSN beneath which entries have been truncated away
// (0 for a complete log). Entries, Trace and Get cover only LSNs above it.
func (l *Log) Base() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.base
}

// RunSpan returns the LSNs of the first and the last entry of run in the
// log (forged included), and false when the log holds none.
func (l *Log) RunSpan(run string) (first, last int, ok bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	seq := l.byRun[run]
	if len(seq) == 0 {
		return 0, 0, false
	}
	return seq[0].LSN, seq[len(seq)-1].LSN, true
}

// Range invokes fn for each committed entry in LSN order until fn returns
// false, without materializing a copy of the entry slice — the streaming
// iteration the snapshot encoders use. fn runs under the log's read lock and
// must not call back into the log.
func (l *Log) Range(fn func(*Entry) bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, e := range l.entries {
		if !fn(e) {
			return
		}
	}
}

// Entries returns the committed entries in LSN order. The slice is a copy;
// the entries are shared and must be treated as immutable.
func (l *Log) Entries() []*Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]*Entry, len(l.entries))
	copy(out, l.entries)
	return out
}

// Get returns the entry for an instance ID. It costs a probe of the run
// index and a scan of that run's resident entries from the newest.
func (l *Log) Get(id InstanceID) (*Entry, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	e := l.find(id)
	return e, e != nil
}

// find resolves id through its run, under the caller's lock. The run is
// what precedes some '/' ahead of the last '#' (the visit's): the first
// such '/' for every ID the system forms, a later one for a run ID that
// holds a '/' itself, so each candidate is probed in turn. The run's
// entries are scanned from the newest, the visit ruling out most of a
// cyclic run's, and the entry's cached ID decides: the log treats IDs as
// opaque, and one no entry formats to resolves to nil.
func (l *Log) find(id InstanceID) *Entry {
	hash := strings.LastIndexByte(string(id), '#')
	visit, err := strconv.Atoi(string(id[hash+1:]))
	if err != nil {
		return nil
	}
	for slash := range hash {
		if id[slash] != '/' {
			continue
		}
		seq := l.byRun[string(id[:slash])]
		for i := len(seq) - 1; i >= 0; i-- {
			if e := seq[i]; e.Visit == visit && e.id == id {
				return e
			}
		}
	}
	return nil
}

// Trace returns the subsequence of the log belonging to the given run
// (§II.A), in LSN order, excluding forged entries when withForged is false.
// The per-run index makes this O(run length), not O(log length).
func (l *Log) Trace(run string, withForged bool) []*Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	seq := l.byRun[run]
	out := make([]*Entry, 0, len(seq))
	for _, e := range seq {
		if e.Forged && !withForged {
			continue
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Runs returns the distinct non-empty run IDs appearing in the log, sorted.
func (l *Log) Runs() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, 0, len(l.byRun))
	for r := range l.byRun {
		if r != "" {
			out = append(out, r)
		}
	}
	sort.Strings(out)
	return out
}

// Succ returns succ(t): the set of instances committed after id within the
// same run's trace (§II.A). Forged entries are excluded.
func (l *Log) Succ(id InstanceID) map[InstanceID]bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make(map[InstanceID]bool)
	if e := l.find(id); e != nil {
		for _, s := range l.byRun[e.Run] {
			if s.LSN > e.LSN && !s.Forged {
				out[s.id] = true
			}
		}
	}
	return out
}

// Precedes reports a ≺ b: a committed before b (§II.B). Unknown instances
// never precede anything.
func (l *Log) Precedes(a, b InstanceID) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	ea, eb := l.find(a), l.find(b)
	return ea != nil && eb != nil && ea.LSN < eb.LSN
}
