package cluster

import (
	"encoding/json"

	"selfheal/internal/data"
	"selfheal/internal/machine"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// Record kinds: the deterministic state-machine transitions every replica
// applies in stream order.
const (
	// KindSpec registers a run (spec + first-writer-wins init seeding).
	KindSpec = "spec"
	// KindEntry commits one task instance (normal or forged) with the
	// stamper's authoritative read observations.
	KindEntry = "entry"
	// KindAdopt installs a repair's effect, which the stamper computed once
	// at this stream position (stamper.SubmitRepair): the WAL's adopt body
	// plus the repair's counts (machine.Effect).
	KindAdopt = "adopt"
	// KindRepair is decode-only: the accused set of a repair that an earlier
	// stamper left for every replica to compute at this position. Nothing
	// stamps it any more; a journal that holds one still replays, through
	// the same compute and install the stamper runs.
	KindRepair = "repair"
	// KindCheckpoint makes every replica capture a snapshot of its state at
	// this stream position, store it beside its journal, and forget what the
	// snapshot covers (replica.applyCheckpoint).
	KindCheckpoint = "checkpoint"
)

// Record is one position of the replicated cluster stream. Seq is dense and
// 1-based; a replica at applied=N holds exactly the effects of records
// 1..N, which is what makes "applied" a complete replication cursor.
type Record struct {
	Seq  int    `json:"seq"`
	Kind string `json:"kind"`
	// Origin is the node that submitted the record (observability only —
	// never part of the applied state).
	Origin string `json:"origin,omitempty"`

	// KindSpec fields.
	Run  string           `json:"run,omitempty"`
	Spec *wfjson.SpecJSON `json:"spec,omitempty"`
	Init map[string]int64 `json:"init,omitempty"`

	// KindEntry field: the committed task instance, shared with the
	// replica's log once applied (entries are immutable after commit). In
	// JSON it travels as "entry" in the EntryJSON shape.
	Entry *wlog.Entry `json:"-"`

	// KindAdopt field.
	Adopt *machine.Effect `json:"adopt,omitempty"`

	// KindRepair field.
	Bad []wlog.InstanceID `json:"bad,omitempty"`

	// built is the spec record's compiled spec and init map, set only on the
	// stamper, which compiled the document to validate it: applying the
	// record then reuses them instead of compiling the document again.
	built *builtSpec
}

// builtSpec is one registration compiled through the replica's intern table.
type builtSpec struct {
	spec *wf.Spec
	init map[data.Key]data.Value
}

// MarshalJSON and UnmarshalJSON are the JSON boundary of a record (the
// curl-able GET and the JSON form of POST /internal/v1/commits): the entry
// converts to and from EntryJSON here and nowhere else.
func (r Record) MarshalJSON() ([]byte, error) {
	type plain Record
	doc := struct {
		plain
		Entry *EntryJSON `json:"entry,omitempty"`
	}{plain: plain(r)}
	if r.Entry != nil {
		doc.Entry = EntryToJSON(r.Entry)
	}
	return json.Marshal(doc)
}

func (r *Record) UnmarshalJSON(b []byte) error {
	type plain Record
	doc := struct {
		*plain
		Entry *EntryJSON `json:"entry"`
	}{plain: (*plain)(r)}
	if err := json.Unmarshal(b, &doc); err != nil {
		return err
	}
	if doc.Entry != nil {
		r.Entry = doc.Entry.ToEntry()
	}
	return nil
}

// ReadObsJSON is the wire form of wlog.ReadObs.
type ReadObsJSON struct {
	Value     int64   `json:"value"`
	Writer    string  `json:"writer,omitempty"`
	WriterPos float64 `json:"writer_pos"`
}

// EntryJSON is the JSON form of a committed task instance, used only at
// HTTP boundaries (POST /internal/v1/submit and the JSON commits documents);
// inside a node and in the binary codec an entry is a wlog.Entry. The LSN is
// not carried: every replica's log assigns the same dense LSN because entry
// records occupy the same stream positions everywhere.
type EntryJSON struct {
	Run    string                 `json:"run,omitempty"`
	Task   string                 `json:"task"`
	Visit  int                    `json:"visit"`
	Forged bool                   `json:"forged,omitempty"`
	Reads  map[string]ReadObsJSON `json:"reads,omitempty"`
	Writes map[string]int64       `json:"writes,omitempty"`
	Chosen string                 `json:"chosen,omitempty"`
}

// ToEntry converts the wire form into a fresh wlog.Entry (LSN unassigned),
// putting the JSON objects' members into the entry's key order.
func (ej *EntryJSON) ToEntry() *wlog.Entry {
	e := &wlog.Entry{
		Run:    ej.Run,
		Task:   wf.TaskID(ej.Task),
		Visit:  ej.Visit,
		Forged: ej.Forged,
		Chosen: wf.TaskID(ej.Chosen),
	}
	if len(ej.Reads) > 0 {
		e.Reads = make([]wlog.Read, 0, len(ej.Reads))
	}
	for k, o := range ej.Reads {
		e.Reads = append(e.Reads, wlog.Read{Key: data.Key(k), ReadObs: wlog.ReadObs{
			Value:     data.Value(o.Value),
			Writer:    o.Writer,
			WriterPos: o.WriterPos,
		}})
	}
	if len(ej.Writes) > 0 {
		e.Writes = make([]wlog.Write, 0, len(ej.Writes))
	}
	for k, v := range ej.Writes {
		e.Writes = append(e.Writes, wlog.Write{Key: data.Key(k), Value: data.Value(v)})
	}
	_ = e.Normalize() // its one error is a repeated key, which a Go map cannot hold
	return e
}

// EntryToJSON converts a wlog.Entry into its wire form.
func EntryToJSON(e *wlog.Entry) *EntryJSON {
	ej := &EntryJSON{
		Run:    e.Run,
		Task:   string(e.Task),
		Visit:  e.Visit,
		Forged: e.Forged,
		Chosen: string(e.Chosen),
		Reads:  make(map[string]ReadObsJSON, len(e.Reads)),
		Writes: make(map[string]int64, len(e.Writes)),
	}
	for _, r := range e.Reads {
		ej.Reads[string(r.Key)] = ReadObsJSON{
			Value:     int64(r.Value),
			Writer:    r.Writer,
			WriterPos: r.WriterPos,
		}
	}
	for _, w := range e.Writes {
		ej.Writes[string(w.Key)] = int64(w.Value)
	}
	return ej
}
