// Binary record codec for the durable WAL: compact, length-delimited field
// encodings (uvarint integers, length-prefixed strings, raw float64 bits)
// replacing the per-entry JSON of internal/wlogio on the hot append path.
// Every record payload starts with a kind byte; the framing layer
// (segment.go) wraps payloads in a [length][CRC32] envelope. The field
// primitives, the sticky-error Reader, the entry body and the adopt body are
// exported: the cluster's record codec (internal/cluster) is built from
// them, so the tree has one varint/string/float64 reader-writer, one
// encoding of a committed task instance and one of a repair's effect.
//
// Encoding is deterministic: map-shaped fields (reads, writes, inits,
// chains) are emitted in sorted key order, so identical states produce
// identical bytes — the property the crash-equivalence tests rely on.
package durable

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"selfheal/internal/data"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// Record kinds. Log-stream kinds (entry/spec/alert/ack/adopt) appear in
// segment files; snap* kinds appear only inside snapshot files.
const (
	recEntry byte = iota + 1
	recSpec
	recAlert
	recAck
	recAdopt
	recSnapHeader
	recSnapChain
	recSnapSpec
	recSnapRun
	recSnapAlert
	recSnapGraph
	recSnapFooter
	recSnapTomb
)

// snapFormat is the snapshot format version stamped in headers. Format 2
// added tombstone records for retired runs; a format-1 snapshot wrote them
// as spec and run records, and still restores (Snapshot.Horizon turns them
// into tombstones).
const snapFormat = 2

// --- primitive writers -------------------------------------------------
//
// Each appends one field to dst and returns the extended slice.

func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }
func AppendVarint(dst []byte, v int64) []byte   { return binary.AppendVarint(dst, v) }

func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func AppendF64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// --- primitive reader --------------------------------------------------

// Reader decodes a record payload; the first decoding error sticks and
// every later read returns zero values, so decode paths check the error
// once, in Finish (loops over a decoded count also stop on Err).
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over payload p.
func NewReader(p []byte) *Reader { return &Reader{b: p} }

// Err returns the sticky decoding error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("durable: truncated uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("durable: truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *Reader) Str() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.fail("durable: truncated string (%d of %d bytes)", len(r.b), n)
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Bytes reads a length-prefixed byte string into a fresh slice.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.fail("durable: truncated bytes (%d of %d)", len(r.b), n)
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b[:n])
	r.b = r.b[n:]
	return out
}

func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("durable: truncated byte")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("durable: truncated float64")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return f
}

// Finish returns the sticky error, or an error when payload bytes remain.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("durable: %d trailing payload bytes", len(r.b))
	}
	return nil
}

// --- log entries --------------------------------------------------------

const (
	entryForged byte = 1 << iota
	entryChosen
)

// EncodeEntry appends the WAL's entry record — the kind byte followed by
// the entry body — to dst.
func EncodeEntry(dst []byte, e *wlog.Entry) []byte {
	return AppendEntryBody(append(dst, recEntry), e)
}

// AppendEntryBody appends the binary encoding of one committed task
// instance (LSN first, reads and writes in the entry's own order, which is
// sorted by key) to dst: the body of a WAL entry record and of a cluster
// entry record alike.
func AppendEntryBody(dst []byte, e *wlog.Entry) []byte {
	dst = AppendUvarint(dst, uint64(e.LSN))
	dst = AppendString(dst, e.Run)
	dst = AppendString(dst, string(e.Task))
	dst = AppendUvarint(dst, uint64(e.Visit))
	var flags byte
	if e.Forged {
		flags |= entryForged
	}
	if e.Chosen != "" {
		flags |= entryChosen
	}
	dst = append(dst, flags)
	if e.Chosen != "" {
		dst = AppendString(dst, string(e.Chosen))
	}

	dst = AppendUvarint(dst, uint64(len(e.Reads)))
	for _, r := range e.Reads {
		dst = AppendString(dst, string(r.Key))
		dst = AppendVarint(dst, int64(r.Value))
		dst = AppendString(dst, r.Writer)
		dst = AppendF64(dst, r.WriterPos)
	}
	dst = AppendUvarint(dst, uint64(len(e.Writes)))
	for _, w := range e.Writes {
		dst = AppendString(dst, string(w.Key))
		dst = AppendVarint(dst, int64(w.Value))
	}
	return dst
}

// DecodeEntry decodes an entry payload produced by EncodeEntry (kind byte
// included).
func DecodeEntry(p []byte) (*wlog.Entry, error) {
	r := NewReader(p)
	if k := r.Byte(); k != recEntry {
		return nil, fmt.Errorf("durable: record kind %d is not an entry", k)
	}
	e := r.EntryBody()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return e, nil
}

// EntryBody reads an entry body written by AppendEntryBody.
func (r *Reader) EntryBody() *wlog.Entry {
	e := &wlog.Entry{
		LSN:   int(r.Uvarint()),
		Run:   r.Str(),
		Task:  wf.TaskID(r.Str()),
		Visit: int(r.Uvarint()),
	}
	flags := r.Byte()
	e.Forged = flags&entryForged != 0
	if flags&entryChosen != 0 {
		e.Chosen = wf.TaskID(r.Str())
	}
	// Every element takes at least a byte, so capping a count at the bytes
	// left sizes the slices exactly and keeps a damaged count harmless.
	if n := r.Uvarint(); n > 0 {
		e.Reads = make([]wlog.Read, 0, min(n, uint64(len(r.b))))
		for i := uint64(0); i < n && r.err == nil; i++ {
			e.Reads = append(e.Reads, wlog.Read{Key: data.Key(r.Str()), ReadObs: wlog.ReadObs{
				Value:     data.Value(r.Varint()),
				Writer:    r.Str(),
				WriterPos: r.F64(),
			}})
		}
	}
	if n := r.Uvarint(); n > 0 {
		e.Writes = make([]wlog.Write, 0, min(n, uint64(len(r.b))))
		for i := uint64(0); i < n && r.err == nil; i++ {
			e.Writes = append(e.Writes, wlog.Write{Key: data.Key(r.Str()), Value: data.Value(r.Varint())})
		}
	}
	// Every writer emits sorted keys; a file that does not is put in order
	// here, and one that repeats a key is damaged.
	if err := e.Normalize(); err != nil && r.err == nil {
		r.err = err
	}
	return e
}

// --- store versions and chains -----------------------------------------

const (
	verRecovery byte = 1 << iota
	verCheckpoint
)

func appendVersion(dst []byte, v data.Version) []byte {
	dst = AppendF64(dst, v.Pos)
	dst = AppendString(dst, v.Writer)
	dst = AppendVarint(dst, int64(v.Value))
	var flags byte
	if v.Recovery {
		flags |= verRecovery
	}
	if v.Checkpoint {
		flags |= verCheckpoint
	}
	return append(dst, flags)
}

func (r *Reader) version() data.Version {
	v := data.Version{
		Pos:    r.F64(),
		Writer: r.Str(),
		Value:  data.Value(r.Varint()),
	}
	flags := r.Byte()
	v.Recovery = flags&verRecovery != 0
	v.Checkpoint = flags&verCheckpoint != 0
	return v
}

func appendChain(dst []byte, chain []data.Version) []byte {
	dst = AppendUvarint(dst, uint64(len(chain)))
	for _, v := range chain {
		dst = appendVersion(dst, v)
	}
	return dst
}

func (r *Reader) chain() []data.Version {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]data.Version, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		out = append(out, r.version())
	}
	return out
}

// sortedKeys returns the keys of a chains map in sorted order.
func sortedKeys[V any](m map[data.Key]V) []data.Key {
	out := make([]data.Key, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// appendInit encodes an initial-values map in sorted key order.
func appendInit(dst []byte, init map[data.Key]data.Value) []byte {
	dst = AppendUvarint(dst, uint64(len(init)))
	for _, k := range sortedKeys(init) {
		dst = AppendString(dst, string(k))
		dst = AppendVarint(dst, int64(init[k]))
	}
	return dst
}

func (r *Reader) initMap() map[data.Key]data.Value {
	n := r.Uvarint()
	out := make(map[data.Key]data.Value, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		k := data.Key(r.Str())
		out[k] = data.Value(r.Varint())
	}
	return out
}

// --- control records ----------------------------------------------------

// encodeSpec builds a spec record: a run registration carrying the wfjson
// spec document and its initial store values, stamped with the highest
// entry LSN already enqueued (the record's position in the commit order).
func encodeSpec(dst []byte, stamp int, run string, specJSON []byte, init map[data.Key]data.Value) []byte {
	dst = append(dst, recSpec)
	dst = AppendUvarint(dst, uint64(stamp))
	dst = AppendString(dst, run)
	dst = AppendBytes(dst, specJSON)
	return appendInit(dst, init)
}

func encodeAlert(dst []byte, stamp int, id uint64, bad []wlog.InstanceID) []byte {
	dst = append(dst, recAlert)
	dst = AppendUvarint(dst, uint64(stamp))
	dst = AppendUvarint(dst, id)
	dst = AppendUvarint(dst, uint64(len(bad)))
	for _, b := range bad {
		dst = AppendString(dst, string(b))
	}
	return dst
}

func encodeAck(dst []byte, stamp int, ids []uint64) []byte {
	dst = append(dst, recAck)
	dst = AppendUvarint(dst, uint64(stamp))
	dst = AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = AppendUvarint(dst, id)
	}
	return dst
}

// RunFrontier is a run's post-repair position, carried by adopt records:
// recovery rewrote the run's path and moved its frontier to Cur (or
// completed it).
type RunFrontier struct {
	Run  string    `json:"run"`
	Cur  wf.TaskID `json:"cur,omitempty"`
	Done bool      `json:"done,omitempty"`
}

// Adopt is a repair's effect, the body of an adopt record: the full
// replacement chains of the damaged keys the repair installed (an empty
// chain deletes the key) and the frontiers of the runs it resynced, in run
// order. Installing it reproduces the repair without re-running it.
type Adopt struct {
	Fronts []RunFrontier               `json:"fronts,omitempty"`
	Chains map[data.Key][]data.Version `json:"chains,omitempty"`
}

// encodeAdopt builds the WAL's adopt record: the kind byte, the stamp and
// the adopt body.
func encodeAdopt(dst []byte, stamp int, a Adopt) []byte {
	dst = append(dst, recAdopt)
	dst = AppendUvarint(dst, uint64(stamp))
	return AppendAdoptBody(dst, a)
}

// AppendAdoptBody appends the binary encoding of a repair's effect, chains
// in key order, to dst: the body of a WAL adopt record and of a cluster
// adopt record alike.
func AppendAdoptBody(dst []byte, a Adopt) []byte {
	dst = AppendUvarint(dst, uint64(len(a.Fronts)))
	for _, f := range a.Fronts {
		dst = AppendString(dst, f.Run)
		dst = AppendString(dst, string(f.Cur))
		var done byte
		if f.Done {
			done = 1
		}
		dst = append(dst, done)
	}
	dst = AppendUvarint(dst, uint64(len(a.Chains)))
	for _, k := range sortedKeys(a.Chains) {
		dst = AppendString(dst, string(k))
		dst = appendChain(dst, a.Chains[k])
	}
	return dst
}

// AdoptBody reads an adopt body written by AppendAdoptBody.
func (r *Reader) AdoptBody() Adopt {
	var a Adopt
	nf := r.Uvarint()
	a.Fronts = make([]RunFrontier, 0, min(nf, uint64(len(r.b))))
	for i := uint64(0); i < nf && r.err == nil; i++ {
		f := RunFrontier{Run: r.Str(), Cur: wf.TaskID(r.Str())}
		f.Done = r.Byte() != 0
		a.Fronts = append(a.Fronts, f)
	}
	nc := r.Uvarint()
	a.Chains = make(map[data.Key][]data.Version, min(nc, uint64(len(r.b))))
	for i := uint64(0); i < nc && r.err == nil; i++ {
		k := data.Key(r.Str())
		a.Chains[k] = r.chain()
	}
	return a
}

// record is one decoded log-stream record.
type record struct {
	kind  byte
	stamp int // highest entry LSN enqueued before this record
	entry *wlog.Entry

	run  string // spec
	spec []byte
	init map[data.Key]data.Value

	alertID uint64 // alert
	bad     []wlog.InstanceID
	ackIDs  []uint64 // ack

	adopt Adopt // adopt
}

// decodeRecord decodes one log-stream record payload.
func decodeRecord(p []byte) (*record, error) {
	r := NewReader(p)
	rec := &record{kind: r.Byte()}
	switch rec.kind {
	case recEntry:
		rec.entry = r.EntryBody()
		rec.stamp = rec.entry.LSN
	case recSpec:
		rec.stamp = int(r.Uvarint())
		rec.run = r.Str()
		rec.spec = r.Bytes()
		rec.init = r.initMap()
	case recAlert:
		rec.stamp = int(r.Uvarint())
		rec.alertID = r.Uvarint()
		n := r.Uvarint()
		rec.bad = make([]wlog.InstanceID, 0, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			rec.bad = append(rec.bad, wlog.InstanceID(r.Str()))
		}
	case recAck:
		rec.stamp = int(r.Uvarint())
		n := r.Uvarint()
		rec.ackIDs = make([]uint64, 0, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			rec.ackIDs = append(rec.ackIDs, r.Uvarint())
		}
	case recAdopt:
		rec.stamp = int(r.Uvarint())
		rec.adopt = r.AdoptBody()
	default:
		return nil, fmt.Errorf("durable: unknown record kind %d", rec.kind)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return rec, nil
}
