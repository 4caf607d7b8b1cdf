// Package machine is the replicated state of a self-healing workflow
// service and the one implementation of what a horizon does to it. Every
// runtime holds a Machine — selfheal.System behind its tick loop,
// shard.Service behind its shards and commit pipeline, a cluster replica
// behind its record stream — and admits alerts, forgets, checks, captures,
// restores and repairs only through it, so a restart from a snapshot, a
// live checkpoint and every deployment mode leave the same state behind
// and answer the same alerts alike. Tally is the repair accounting each
// runtime keeps beside it, and KeyGate the quiesce each pauses keys with.
//
// A Machine holds exactly what a restart from a snapshot must reproduce: the
// engine (log and store), the compiled specs and their intern table, every
// registered run's frontier, a tombstone for every run retired beneath the
// horizon, the runs that retired without an entry, and the horizon itself —
// its epoch and the pre-epoch runs, live runs with history beneath it.
//
// The horizon's contract (docs/DURABILITY.md): beneath it the log, the
// dependence graph and the store history are gone, a retired run keeps only
// its tombstone, and an attacker's run nobody registered keeps a forged one.
// An alert naming an instance beneath it is refused as below the horizon
// (BelowHorizon), and so is a repair whose damage reaches a run with
// history beneath it (CheckHorizon).
package machine

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/durable"
	"selfheal/internal/engine"
	"selfheal/internal/recovery"
	"selfheal/internal/triage"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// Status is what the machine records of a run's lifecycle.
type Status uint8

const (
	// Live: registered and not retired.
	Live Status = iota
	// Done: the run reached an end node.
	Done
	// Failed: a task of the run crashed before committing.
	Failed
	// Forged: a tombstone only — an attacker's run nobody registered, whose
	// forged entries lie beneath the horizon.
	Forged
)

// statusNames are the statuses' snapshot names, by Status.
var statusNames = []string{durable.RunActive, durable.RunDone, durable.RunFailed, durable.RunForged}

// String returns the status's snapshot name.
func (s Status) String() string { return statusNames[s] }

// statusOf parses a snapshot status name; any live one is Live.
func statusOf(name string) Status { return Status(max(0, slices.Index(statusNames, name))) }

// Run is one registered run: its frontier, which only the run's driver
// moves (a shard worker inside its gate, a replica under its lock), and
// its status, which the machine guards.
type Run struct {
	engine.Run
	status Status
}

// Machine is the replicated state. Every method is safe from any goroutine;
// a run's frontier is the caller's to synchronize (Run).
type Machine struct {
	eng *engine.Engine
	tab *wf.Interner
	// retained is the intern table's size after its last rebuild (Retain).
	retained int

	mu    sync.Mutex
	specs map[string]*wf.Spec
	// runs holds every registered run not yet buried: the live ones and
	// those retired since the last Forget.
	runs map[string]*Run
	// tombs holds the runs buried beneath the horizon, kept per run
	// forever and so kept small: a status byte. errs holds the error of
	// every failed run, buried or not.
	tombs map[string]Status
	errs  map[string]string
	// bare holds the runs that retired without an entry in the log, until
	// a Forget buries them: HorizonAt finds every other run by its entries.
	bare []string
	// epoch is the horizon: the LSN the log is based at and the store is
	// compacted at. pre holds the pre-epoch runs, each with its visit
	// counts at or beneath the epoch: the instances BelowHorizon refuses.
	epoch int
	pre   map[string]map[wf.TaskID]int
}

// New returns a machine over eng — its log, its store and the attacks
// registered on it — with no run registered, compiling specs into tab.
func New(eng *engine.Engine, tab *wf.Interner) *Machine {
	return &Machine{
		eng:   eng,
		tab:   tab,
		specs: make(map[string]*wf.Spec),
		runs:  make(map[string]*Run),
		tombs: make(map[string]Status),
		errs:  make(map[string]string),
	}
}

// Restore rebuilds the machine a snapshot describes — its store chains at
// the horizon, the live runs' specs, compiled into tab, and their frontiers —
// on an empty log based at the snapshot's epoch, and forgets what the horizon
// covers, exactly as the live checkpoint that wrote the snapshot did
// (Forget). A nil snapshot is the empty machine. Both a durable service and a
// cluster replica boot here and replay the records past the snapshot through
// Register and Init, Apply and Install.
func Restore(tab *wf.Interner, snap *durable.Snapshot) (*Machine, error) {
	if snap == nil {
		return New(engine.New(data.NewStore(), wlog.New()), tab), nil
	}
	store, err := data.NewStoreFromChains(snap.Chains)
	if err != nil {
		return nil, fmt.Errorf("machine: snapshot %d: %w", snap.Seq, err)
	}
	m := New(engine.New(store, wlog.NewAt(snap.Epoch)), tab)
	h := snap.Horizon()
	m.pre = make(map[string]map[wf.TaskID]int, len(h.PreEpoch))
	for id, rs := range snap.Runs {
		if _, gone := h.Tombs[id]; gone {
			continue
		}
		sp, ok := snap.Specs[id]
		if !ok {
			return nil, fmt.Errorf("machine: snapshot %d: run %s has no spec", snap.Seq, id)
		}
		spec, _, err := wfjson.DecodeIn(tab, bytes.NewReader(sp.JSON))
		if err != nil {
			return nil, fmt.Errorf("machine: snapshot %d: spec of run %s: %w", snap.Seq, id, err)
		}
		// Every retired run is a tombstone. A run at no task was moved past
		// its end by a repair, and the checkpoint caught it before its
		// driver retired it: it is done.
		done := rs.Cur == ""
		visits := make(map[wf.TaskID]int, len(rs.Visits))
		for t, n := range rs.Visits {
			visits[tab.TaskID(string(t))] = n
		}
		r, err := m.eng.RestoreRun(id, spec, tab.TaskID(string(rs.Cur)), visits, done, false)
		if err != nil {
			return nil, fmt.Errorf("machine: restoring run %s: %w", id, err)
		}
		m.specs[id], m.runs[id] = spec, &Run{Run: *r}
		if done {
			m.runs[id].status = Done
			m.noteBareLocked(id)
		}
		if h.PreEpoch[id] {
			m.pre[id] = visits // the snapshot's visits: all at or beneath the epoch
		}
	}
	m.Forget(h)
	m.Retain(false)
	return m, nil
}

// Engine returns the engine over the machine's log and store.
func (m *Machine) Engine() *engine.Engine { return m.eng }

// Log returns the machine's log.
func (m *Machine) Log() *wlog.Log { return m.eng.Log() }

// Store returns the machine's store.
func (m *Machine) Store() *data.Store { return m.eng.Store() }

// Tab returns the intern table every spec of this machine is compiled into.
func (m *Machine) Tab() *wf.Interner { return m.tab }

// Epoch returns the horizon.
func (m *Machine) Epoch() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// PreEpoch returns the runs with history beneath the horizon.
func (m *Machine) PreEpoch() map[string]bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]bool, len(m.pre))
	for id := range m.pre {
		out[id] = true
	}
	return out
}

// Init seeds the initial values of keys with no version at all — first
// writer wins, whatever order the keys come in — and returns those it
// seeded.
func (m *Machine) Init(init map[data.Key]data.Value) map[data.Key]data.Value {
	store := m.eng.Store()
	applied := make(map[data.Key]data.Value)
	for k, v := range init {
		if _, ok := store.Get(k); !ok {
			store.Init(k, v)
			applied[k] = v
		}
	}
	return applied
}

// Register registers a run of spec under id at its start. Rejections wrap
// engine.ErrBadSpec or engine.ErrRunExists; a buried ID is never reused.
func (m *Machine) Register(id string, spec *wf.Spec) (*Run, error) {
	r, err := m.eng.NewRun(id, spec)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.hasLocked(id) {
		return nil, fmt.Errorf("machine: run %s: %w", id, engine.ErrRunExists)
	}
	run := &Run{Run: *r}
	m.specs[id], m.runs[id] = spec, run
	return run, nil
}

// Unregister drops a run registered by mistake, before it committed
// anything: a registration its runtime could not place.
func (m *Machine) Unregister(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.specs, id)
	delete(m.runs, id)
}

// Has reports whether id names a registered run, a buried one or a forged
// one: an ID a registration may not take.
func (m *Machine) Has(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hasLocked(id)
}

func (m *Machine) hasLocked(id string) bool {
	_, gone := m.tombs[id]
	return gone || m.runs[id] != nil
}

// Run returns a registered run not yet buried, or nil.
func (m *Machine) Run(id string) *Run {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runs[id]
}

// Spec returns a run's compiled spec, or nil once it is buried.
func (m *Machine) Spec(id string) *wf.Spec {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.specs[id]
}

// Specs returns a copy of the registered specs: a view that stays valid
// while runs keep registering.
func (m *Machine) Specs() map[string]*wf.Spec {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.specs)
}

// Status returns what the machine records of id — Live, Done or Failed for
// a registered run, a buried one's final status, Forged for an attacker's
// run beneath the horizon — with a failed run's error; ok is false for an
// ID the machine never knew.
func (m *Machine) Status(id string) (st Status, err string, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r := m.runs[id]; r != nil {
		return r.status, m.errs[id], true
	}
	st, ok = m.tombs[id]
	return st, m.errs[id], ok
}

// Buried reports whether id is a tombstone, and with which status.
func (m *Machine) Buried(id string) (Status, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.tombs[id]
	return st, ok
}

// Tombs returns the buried runs' tombstones in their snapshot form.
func (m *Machine) Tombs() map[string]durable.Tombstone {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tombsLocked()
}

func (m *Machine) tombsLocked() map[string]durable.Tombstone {
	out := make(map[string]durable.Tombstone, len(m.tombs)+len(m.runs))
	for id, st := range m.tombs {
		out[id] = durable.Tombstone{Status: st.String(), Err: m.errs[id]}
	}
	return out
}

// IDs returns every registered run, buried ones included and forged ones
// not — nobody registered those — sorted.
func (m *Machine) IDs() []string {
	m.mu.Lock()
	out := make([]string, 0, len(m.runs)+len(m.tombs))
	for id := range m.runs {
		out = append(out, id)
	}
	for id, st := range m.tombs {
		if st != Forged {
			out = append(out, id)
		}
	}
	m.mu.Unlock()
	slices.Sort(out)
	return out
}

// Live returns the runs not retired, sorted.
func (m *Machine) Live() []string {
	m.mu.Lock()
	var out []string
	for id, r := range m.runs {
		if r.status == Live {
			out = append(out, id)
		}
	}
	m.mu.Unlock()
	slices.Sort(out)
	return out
}

// Retire records that a live run reached its final status.
func (m *Machine) Retire(id string, st Status, err string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.runs[id]
	if r == nil || r.status != Live {
		return
	}
	r.status = st
	if err != "" {
		m.errs[id] = err
	}
	m.noteBareLocked(id)
}

// noteBareLocked records a retired run in bare if the log holds no entry of
// it. Callers hold m.mu.
func (m *Machine) noteBareLocked(id string) {
	if _, _, ok := m.eng.Log().RunSpan(id); !ok {
		m.bare = append(m.bare, id)
	}
}

// Apply commits an entry prepared elsewhere — a replicated commit or a
// forge — and advances its run past it, retiring a run that reached its
// end; done reports that it did. An entry carrying an LSN must land at it.
// A run's entry arrives with fresh strings, from a JSON body or a decoded
// frame, and is pointed at its compiled spec's (internEntry).
func (m *Machine) Apply(e *wlog.Entry) (done bool, err error) {
	if next := m.eng.Log().Len() + 1; e.LSN != 0 && e.LSN != next {
		return false, fmt.Errorf("machine: entry %s stamped with LSN %d, this log is at %d", e.ID(), e.LSN, next)
	}
	m.mu.Lock()
	r, spec := m.runs[e.Run], m.specs[e.Run]
	m.mu.Unlock()
	if !e.Forged {
		if r == nil {
			return false, fmt.Errorf("machine: entry for unregistered run %s", e.Run)
		}
		task := spec.Task(e.Task)
		if task == nil {
			return false, fmt.Errorf("machine: run %s has no task %s", e.Run, e.Task)
		}
		internEntry(e, spec, task)
	}
	if err := m.eng.CommitEntry(e); err != nil {
		return false, err
	}
	if e.Forged {
		return false, nil
	}
	if r.Follow(e); r.Done() {
		m.Retire(e.Run, Done, "")
		return true, nil
	}
	return false, nil
}

// internEntry points a committed entry's strings at its compiled spec's —
// the run ID (when the workflow is named after the run), the task, every
// read and write key and the chosen successor — so the log keeps no
// per-entry copy of strings every run already holds once.
func internEntry(e *wlog.Entry, spec *wf.Spec, task *wf.Task) {
	if e.Run == spec.Name {
		e.Run = spec.Name
	}
	e.Task = task.ID
	for i := range e.Reads {
		if j := slices.Index(task.Reads, e.Reads[i].Key); j >= 0 {
			e.Reads[i].Key = task.Reads[j]
		}
	}
	for i := range e.Writes {
		if j := slices.Index(task.Writes, e.Writes[i].Key); j >= 0 {
			e.Writes[i].Key = task.Writes[j]
		}
	}
	if j := slices.Index(task.Next, e.Chosen); j >= 0 {
		e.Chosen = task.Next[j]
	}
}

// HorizonAt computes, from the live state, the horizon to forget at: an
// epoch at most target. Its caller keeps repairs away meanwhile; commits
// may keep landing, but above target. Its Graph is left to the caller,
// which alone knows whether it keeps a dependence graph.
//
// The epoch E is the largest LSN ≤ target at which no retired run has
// entries on both sides. Such a run could be neither buried (it has history
// above E) nor frozen (it has history beneath), and every repair whose key
// closure reached it would be refused. The horizon then buries every retired
// run whose entries all lie at or below E and every run nobody registered
// with an entry at or below E — a forge's, whose alerts are refused as below
// the horizon rather than unknown — and marks pre-epoch every live run that
// committed a step at or below E: a run that started above E is not, and
// neither is one whose only entries there are forges in its name, which its
// visit counts, and so a snapshot, never record. A run already pre-epoch
// stays so until it is buried. At the head of a quiesced machine, with the
// earlier tombstones added, this is exactly the horizon of the snapshot
// Capture takes there.
//
// Its cost follows what the horizon may drop, not what the machine keeps:
// only a run with an entry in (base, target] can straddle the target, be
// buried or turn pre-epoch, besides the runs already pre-epoch and the runs
// that retired without an entry, so only those are classified, each by its
// first and last LSN from the log's per-run index. Every other run started
// above target, where E cannot reach. The Tombs are only the runs it
// buries, not the earlier tombstones.
func (m *Machine) HorizonAt(target int) durable.Horizon {
	log := m.eng.Log()
	cand := make(map[string]bool)
	log.Range(func(e *wlog.Entry) bool {
		if e.LSN > target {
			return false
		}
		if e.Run != "" {
			cand[e.Run] = true
		}
		return true
	})

	// Run states before their spans: a run that retires after this reading
	// is classified live, which buries nothing it still writes.
	retired := make(map[string]durable.Tombstone)
	live := make(map[string]bool)
	m.mu.Lock()
	wasPre := m.pre // replaced, never written, by Forget
	for id := range wasPre {
		cand[id] = true
	}
	for _, id := range m.bare {
		cand[id] = true
	}
	for id := range cand {
		switch r, ok := m.runs[id]; {
		case !ok:
		case r.status != Live:
			retired[id] = durable.Tombstone{Status: r.status.String(), Err: m.errs[id]}
		default:
			live[id] = true
		}
	}
	m.mu.Unlock()

	type span struct{ first, last int }
	spans := make(map[string]span, len(cand))
	for id := range cand {
		if first, last, ok := log.RunSpan(id); ok {
			spans[id] = span{first, last}
		}
	}

	// Walk the retired runs by descending last entry, moving E beneath
	// every one that straddles it; once a run ends at or below E, every
	// later one does. A run already pre-epoch straddles the previous
	// horizon wherever E sits, so it does not move E.
	var cuts []span
	for id := range retired {
		if sp, ok := spans[id]; ok && wasPre[id] == nil {
			cuts = append(cuts, sp)
		}
	}
	slices.SortFunc(cuts, func(a, b span) int { return b.last - a.last })
	epoch := max(target, log.Base())
	for _, sp := range cuts {
		if sp.last <= epoch {
			break
		}
		if sp.first <= epoch {
			epoch = sp.first - 1
		}
	}

	tombs := make(map[string]durable.Tombstone)
	pre := make(map[string]bool)
	for id, tb := range retired {
		if sp, ok := spans[id]; !ok || sp.last <= epoch {
			tombs[id] = tb
		} else if wasPre[id] != nil {
			pre[id] = true
		}
	}
	for id := range wasPre {
		if live[id] {
			pre[id] = true
		}
	}
	var forged []string
	for id, sp := range spans {
		if sp.first > epoch {
			continue
		}
		if _, done := retired[id]; live[id] {
			if steps := log.Trace(id, false); len(steps) > 0 && steps[0].LSN <= epoch {
				pre[id] = true
			}
		} else if !done {
			forged = append(forged, id)
		}
	}
	m.mu.Lock()
	for _, id := range forged {
		if _, gone := m.tombs[id]; !gone {
			tombs[id] = durable.Tombstone{Status: durable.RunForged}
		}
	}
	m.mu.Unlock()
	return durable.Horizon{Epoch: epoch, Tombs: tombs, PreEpoch: pre}
}

// Forget drops what a restart from the snapshot behind h would not bring
// back: every run in h.Tombs but its tombstone — its run record and its
// compiled spec — the log prefix at or below the epoch (hooks stay
// subscribed) and the store history beneath it but the checkpoint version
// (data.Store.CompactBefore), so repairs of damage above it still read
// correct pre-state values. The runs in h.PreEpoch become the pre-epoch
// runs, each with the visits its steps at or below the epoch made — what
// its visit counts, and so a snapshot, record. The runs are buried and
// the horizon moved before the log drops its prefix, so an alert that
// misses the truncated log finds the tombstone or the pre-epoch run.
// Restore ends here too, on a log and store that already start at the
// horizon, so a restart and a checkpoint leave the same state behind.
// Forget does not touch a dependence graph or the intern table: a caller
// that keeps a graph rebases it, and Retain rebuilds the table.
func (m *Machine) Forget(h durable.Horizon) {
	log := m.eng.Log()
	pre := make(map[string]map[wf.TaskID]int, len(h.PreEpoch))
	for id := range h.PreEpoch {
		visits := maps.Clone(m.pre[id])
		if visits == nil {
			visits = make(map[wf.TaskID]int)
		}
		for _, e := range log.Trace(id, false) {
			if e.LSN > h.Epoch {
				break
			}
			visits[e.Task] = max(visits[e.Task], e.Visit)
		}
		pre[id] = visits
	}
	m.mu.Lock()
	for id, tb := range h.Tombs {
		st := statusOf(tb.Status)
		if st == Live {
			st = Done // a format-1 tombstone
		}
		m.tombs[id] = st
		if tb.Err != "" {
			m.errs[id] = tb.Err
		}
	}
	m.runs, m.specs = Prune(m.runs, h.Tombs), Prune(m.specs, h.Tombs)
	m.bare = slices.DeleteFunc(m.bare, func(id string) bool { _, gone := h.Tombs[id]; return gone })
	m.pre, m.epoch = pre, h.Epoch
	m.mu.Unlock()
	log.TruncateBefore(h.Epoch)
	m.eng.Store().CompactBefore(float64(h.Epoch))
}

// Prune returns m without the keys in gone. A Go map keeps its peak size
// after deletes, so a map that loses most of its entries — a head checkpoint
// after a long history — is rebuilt to release their slots; one that keeps
// most — a trailing horizon — is pruned in place, at a cost that follows
// what it loses, and stays near the size it grows back to.
func Prune[V, G any](m map[string]V, gone map[string]G) map[string]V {
	if len(m) == 0 || 2*len(gone) < len(m) {
		for id := range gone {
			delete(m, id)
		}
		return m
	}
	kept := make(map[string]V)
	for id, v := range m {
		if _, ok := gone[id]; !ok {
			kept[id] = v
		}
	}
	return kept
}

// Retain rebuilds the intern table from the registered specs, dropping
// every entry only buried specs referenced. A spec compiled meanwhile is
// still correct; it may only share less (wf.Interner.Retain). With auto set
// it rebuilds only once the table has grown by a quarter since the last
// rebuild, which keeps the table within a quarter of what the live specs
// reference at a cost that follows its growth, not the checkpoint rate.
func (m *Machine) Retain(auto bool) {
	if auto && 4*m.tab.Len() < 5*m.retained {
		return
	}
	m.tab.Retain(m.Specs())
	m.retained = m.tab.Len()
}

// CheckHorizon refuses, with recovery.ErrHorizon, a repair that would need
// history the horizon truncated: an accused instance beneath it, or a
// pre-epoch run inside the damage closure dkeys — its resync would walk a
// truncated trace (wrong visit counters, invisible early writes). A nil
// dkeys is the closure of bad on the machine's own log and specs, computed
// only when a pre-epoch run could meet it. Retired runs whose entries all
// sit beneath the horizon are exempt: they are frozen history, never
// replayed or resynced, and their surviving effect is the checkpoint
// boundary versions, which repairs above the horizon expose by undoing the
// damage layered on top. The runs are checked in ID order, so every replica
// refuses a repair with the same error.
func (m *Machine) CheckHorizon(bad []wlog.InstanceID, dkeys map[data.Key]bool) error {
	log := m.eng.Log()
	m.mu.Lock()
	defer m.mu.Unlock()
	// A checkpoint that landed between an alert's admission and its repair
	// has forgotten the accused instances: their history is gone.
	for _, id := range bad {
		if _, ok := log.Get(id); !ok {
			return fmt.Errorf("machine: accused instance %s lies beneath the horizon (epoch %d): %w", id, m.epoch, recovery.ErrHorizon)
		}
	}
	if len(m.pre) == 0 {
		return nil
	}
	if dkeys == nil {
		dkeys = recovery.DamageKeyClosure(log, m.specs, bad)
	}
	ids := make([]string, 0, len(m.pre))
	for id := range m.pre {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		sp := m.specs[id]
		if sp == nil {
			continue
		}
		if r := m.runs[id]; r != nil && r.status != Live && len(log.Trace(id, false)) == 0 {
			continue
		}
		for _, k := range sp.Footprint() {
			if dkeys[k] {
				return fmt.Errorf("machine: damage closure reaches run %s with history beneath the horizon (epoch %d): %w",
					id, m.epoch, recovery.ErrHorizon)
			}
		}
	}
	return nil
}

// DamageKeys is the damage-key closure of the seed instances on the
// machine's log and specs (recovery.DamageKeyClosure), under its lock.
func (m *Machine) DamageKeys(seeds ...[]wlog.InstanceID) map[data.Key]bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return recovery.DamageKeyClosure(m.eng.Log(), m.specs, seeds...)
}

// CheckAlerts admits a batch of alerts the way every runtime does, before
// it queues any: syntax over the whole batch first, so an empty alert, or an
// instance ID anywhere that is malformed and not in the log, wraps
// engine.ErrBadSpec (400); then presence, so an instance absent from the
// log wraps recovery.ErrHorizon (410) when it lies beneath the horizon
// (BelowHorizon) and engine.ErrUnknownRun (404) otherwise.
func (m *Machine) CheckAlerts(alerts []triage.Alert) error {
	for _, a := range alerts {
		if len(a.Bad) == 0 {
			return fmt.Errorf("machine: %w: alert names no instances", engine.ErrBadSpec)
		}
		for _, id := range a.Bad {
			if _, _, _, err := wlog.ParseInstance(id); err != nil && !m.logged(id) {
				return fmt.Errorf("machine: %w: malformed instance ID: %v", engine.ErrBadSpec, err)
			}
		}
	}
	for _, a := range alerts {
		for _, id := range a.Bad {
			if m.logged(id) {
				continue
			}
			if m.BelowHorizon(id) {
				return fmt.Errorf("machine: alert names %s, beneath the horizon (epoch %d): %w", id, m.Epoch(), recovery.ErrHorizon)
			}
			return fmt.Errorf("machine: alert names unknown instance %s: %w", id, engine.ErrUnknownRun)
		}
	}
	return nil
}

// logged reports whether id is committed in the log. A forge in no run's
// name has an ID ParseInstance refuses, and is still accused by it.
func (m *Machine) logged(id wlog.InstanceID) bool {
	_, ok := m.eng.Log().Get(id)
	return ok
}

// BelowHorizon reports whether a well-formed instance absent from the log
// lies beneath the horizon — the 410 of every mode: its run is buried
// (retired, or forged by an attacker), or it is a pre-epoch run and the
// instance is a step the run had made at or beneath the epoch.
func (m *Machine) BelowHorizon(id wlog.InstanceID) bool {
	run, task, visit, err := wlog.ParseInstance(id)
	if err != nil {
		return false
	}
	if _, ok := m.eng.Log().Get(id); ok {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, gone := m.tombs[run]; gone {
		return true
	}
	return visit <= m.pre[run][task]
}

// Capture returns the state a snapshot at the head persists: the store
// chains, every live run's frontier, and a tombstone for every run retired
// by now — the earlier tombstones and the runs retired since — and for
// every run with entries in the log nobody registered, which only forges
// write. Its caller holds every run's driver still, and adds what it keeps
// beside the machine (Seq, Specs, Graph, Alerts).
func (m *Machine) Capture() *durable.Snapshot {
	log := m.eng.Log()
	logged := log.Runs()
	snap := &durable.Snapshot{
		Epoch:  log.Len(),
		Chains: m.eng.Store().ChainsCopy(),
		Runs:   make(map[string]durable.RunState),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	snap.Tombs = m.tombsLocked()
	for id, r := range m.runs {
		if r.status != Live {
			snap.Tombs[id] = durable.Tombstone{Status: r.status.String(), Err: m.errs[id]}
			continue
		}
		snap.Runs[id] = durable.RunState{Cur: r.Current(), Visits: r.VisitCounts(), Status: durable.RunActive}
	}
	for _, id := range logged {
		if _, ok := m.runs[id]; !ok {
			if _, ok := snap.Tombs[id]; !ok {
				snap.Tombs[id] = durable.Tombstone{Status: durable.RunForged}
			}
		}
	}
	return snap
}

// Repair computes the damage-scoped repair of the accused instances bad —
// the one recovery.RepairGraph call of every runtime — against g, a
// dependence graph of the log up to opts.Epoch (the whole log when 0), and
// specs, the specs registered when g was pinned; nil specs are the
// machine's own, read under its lock for the whole computation. A store
// compacted at the horizon refuses an undo that needs a version beneath it
// instead of misreading the gap. Install applies the result.
func (m *Machine) Repair(g *deps.Graph, specs map[string]*wf.Spec, bad []wlog.InstanceID, opts recovery.Options) (*recovery.Result, error) {
	opts.ScopeToDamage = true
	if specs == nil {
		m.mu.Lock()
		defer m.mu.Unlock()
		specs = m.specs
		opts.CompactionHorizon = float64(m.epoch)
	} else {
		opts.CompactionHorizon = float64(m.Epoch())
	}
	return recovery.RepairGraph(g, m.eng.Store(), m.eng.Log(), specs, bad, opts)
}

// Effect is what installing a repair does to a machine, the body of an
// adopt record: the replacement chains of the damaged keys and the corrected
// frontiers of the live runs its schedule rewrote (durable.Adopt), with the
// counts of the instances it undid, redid and newly executed, which the
// tally of every machine that installs it records.
type Effect struct {
	durable.Adopt
	Undone      int `json:"undone"`
	Redone      int `json:"redone"`
	NewExecuted int `json:"new_executed"`
}

// EffectOf returns the effect of a computed repair on this machine: the
// repaired chain of every damaged key (nil when the repair deleted it) and
// the corrected frontier of every live run its schedule rewrote, in run
// order. A scoped repair's schedule names only the runs of its damaged
// components, whose drivers the caller holds still until Install.
func (m *Machine) EffectOf(res *recovery.Result) Effect {
	eff := Effect{Undone: len(res.Undone), Redone: len(res.Redone), NewExecuted: len(res.NewExecuted)}
	eff.Chains = make(map[data.Key][]data.Version, len(res.DamagedKeys))
	for _, k := range res.DamagedKeys {
		eff.Chains[k] = res.Store.Chain(k)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, f := range res.Frontiers(m.specs) {
		if r := m.runs[id]; r != nil && r.status == Live {
			eff.Fronts = append(eff.Fronts, durable.RunFrontier{Run: id, Cur: f.Cur, Done: f.Done})
		}
	}
	slices.SortFunc(eff.Fronts, func(a, b durable.RunFrontier) int { return strings.Compare(a.Run, b.Run) })
	return eff
}

// Install applies a repair's effect — the one install path of every
// runtime and of every replica of the cluster stream: it merges the chains
// into the store (the store keeps them) and moves every live run it names
// onto its frontier, with visit counters rebuilt from the run's trace
// (engine.Resync). A run the effect moved past its end is left to its
// driver to retire.
func (m *Machine) Install(eff Effect) error {
	m.eng.Store().AdoptChains(eff.Chains)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range eff.Fronts {
		r := m.runs[f.Run]
		if r == nil || r.status != Live {
			continue
		}
		if err := m.eng.Resync(&r.Run, f.Cur, f.Done); err != nil {
			return fmt.Errorf("machine: resync %s: %w", f.Run, err)
		}
	}
	return nil
}
