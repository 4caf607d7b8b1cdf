// Package wlogio persists the system log and the versioned store as JSON
// and restores them, so a recovery system can survive restarts and ship
// histories between machines for offline damage analysis. The paper's undo
// primitive depends on the durability of both structures (§III.A: undo
// reads "the last version of the data objects before the attack from the
// log of the workflow management system").
package wlogio

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"selfheal/internal/data"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// readObsJSON mirrors wlog.ReadObs.
type readObsJSON struct {
	Value     int64   `json:"value"`
	Writer    string  `json:"writer,omitempty"`
	WriterPos float64 `json:"writerPos"`
}

// entryJSON mirrors wlog.Entry.
type entryJSON struct {
	LSN    int                    `json:"lsn"`
	Run    string                 `json:"run,omitempty"`
	Task   string                 `json:"task"`
	Visit  int                    `json:"visit"`
	Forged bool                   `json:"forged,omitempty"`
	Reads  map[string]readObsJSON `json:"reads,omitempty"`
	Writes map[string]int64       `json:"writes,omitempty"`
	Chosen string                 `json:"chosen,omitempty"`
}

// versionJSON mirrors data.Version.
type versionJSON struct {
	Pos        float64 `json:"pos"`
	Writer     string  `json:"writer,omitempty"`
	Value      int64   `json:"value"`
	Recovery   bool    `json:"recovery,omitempty"`
	Checkpoint bool    `json:"checkpoint,omitempty"`
}

// snapshotJSON is the on-disk document.
type snapshotJSON struct {
	Format  int                      `json:"format"`
	Entries []entryJSON              `json:"entries"`
	Chains  map[string][]versionJSON `json:"chains"`
}

// formatVersion identifies the snapshot schema.
const formatVersion = 1

// Encode writes the log and store as a JSON snapshot.
func Encode(w io.Writer, log *wlog.Log, store *data.Store) error {
	snap := snapshotJSON{
		Format:  formatVersion,
		Entries: make([]entryJSON, 0, log.Len()-log.Base()),
		Chains:  make(map[string][]versionJSON),
	}
	// Range streams entries under the log's read lock instead of
	// materializing the Entries() copy — on a 100k-entry log that copy is
	// the dominant allocation of the whole encode.
	log.Range(func(e *wlog.Entry) bool {
		ej := entryJSON{
			LSN:    e.LSN,
			Run:    e.Run,
			Task:   string(e.Task),
			Visit:  e.Visit,
			Forged: e.Forged,
			Chosen: string(e.Chosen),
		}
		if len(e.Reads) > 0 {
			ej.Reads = make(map[string]readObsJSON, len(e.Reads))
			for _, r := range e.Reads {
				ej.Reads[string(r.Key)] = readObsJSON{Value: int64(r.Value), Writer: r.Writer, WriterPos: r.WriterPos}
			}
		}
		if len(e.Writes) > 0 {
			ej.Writes = make(map[string]int64, len(e.Writes))
			for _, w := range e.Writes {
				ej.Writes[string(w.Key)] = int64(w.Value)
			}
		}
		snap.Entries = append(snap.Entries, ej)
		return true
	})
	for _, k := range store.Keys() {
		chain := store.Chain(k)
		vj := make([]versionJSON, 0, len(chain))
		for _, v := range chain {
			vj = append(vj, versionJSON{
				Pos: v.Pos, Writer: v.Writer, Value: int64(v.Value),
				Recovery: v.Recovery, Checkpoint: v.Checkpoint,
			})
		}
		snap.Chains[string(k)] = vj
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("wlogio: encode: %w", err)
	}
	return nil
}

// Decode restores a log and store from a snapshot written by Encode.
func Decode(r io.Reader) (*wlog.Log, *data.Store, error) {
	var snap snapshotJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return nil, nil, fmt.Errorf("wlogio: decode: %w", err)
	}
	if snap.Format != formatVersion {
		return nil, nil, fmt.Errorf("wlogio: unsupported snapshot format %d (want %d)", snap.Format, formatVersion)
	}
	sort.Slice(snap.Entries, func(i, j int) bool { return snap.Entries[i].LSN < snap.Entries[j].LSN })
	log := wlog.New()
	for i, ej := range snap.Entries {
		if ej.LSN != i+1 {
			return nil, nil, fmt.Errorf("wlogio: non-dense LSN %d at position %d", ej.LSN, i)
		}
		e := &wlog.Entry{
			Run:    ej.Run,
			Task:   wf.TaskID(ej.Task),
			Visit:  ej.Visit,
			Forged: ej.Forged,
			Chosen: wf.TaskID(ej.Chosen),
		}
		// The JSON objects arrive as Go maps; Append puts the members into
		// the entry's key order.
		for k, o := range ej.Reads {
			e.Reads = append(e.Reads, wlog.Read{Key: data.Key(k), ReadObs: wlog.ReadObs{Value: data.Value(o.Value), Writer: o.Writer, WriterPos: o.WriterPos}})
		}
		for k, v := range ej.Writes {
			e.Writes = append(e.Writes, wlog.Write{Key: data.Key(k), Value: data.Value(v)})
		}
		if _, err := log.Append(e); err != nil {
			return nil, nil, fmt.Errorf("wlogio: rebuild log: %w", err)
		}
	}
	// Bulk-install the chains (one validation pass, no per-write lock
	// traffic) and keep every version flag — the old per-version Write loop
	// silently dropped Checkpoint bits, so a compacted store did not survive
	// a round trip.
	chains := make(map[data.Key][]data.Version, len(snap.Chains))
	for k, vs := range snap.Chains {
		if len(vs) == 0 {
			continue
		}
		chain := make([]data.Version, 0, len(vs))
		for _, v := range vs {
			chain = append(chain, data.Version{
				Pos: v.Pos, Writer: v.Writer, Value: data.Value(v.Value),
				Recovery: v.Recovery, Checkpoint: v.Checkpoint,
			})
		}
		chains[data.Key(k)] = chain
	}
	store, err := data.NewStoreFromChains(chains)
	if err != nil {
		return nil, nil, fmt.Errorf("wlogio: rebuild store: %w", err)
	}
	return log, store, nil
}
