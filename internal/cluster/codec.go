package cluster

import (
	"encoding/json"
	"fmt"
	"sort"

	"selfheal/internal/durable"
	"selfheal/internal/machine"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// Binary record codec. Every record — in the per-node journal and in the
// push/fetch replication bodies — is one framed payload
// (durable.AppendFrame: [len][crc][payload]) built from internal/durable's
// field primitives, whose payload is:
//
//	kind    byte   (1=spec 2=entry 3=repair 4=checkpoint 5=adopt; 3 is decoded, never stamped)
//	seq     uvarint
//	origin  string (uvarint length + bytes)
//	kind-specific body
//
// Spec bodies embed the run document as canonical JSON bytes (specs are
// rare control-plane records; the hot path is entries). An entry body is
// durable's entry body (durable.AppendEntryBody), byte for byte what the
// single-node WAL writes after its kind byte: its leading LSN field carries
// the LSN the stamper's log assigned, which every replica checks against
// its own on apply. An adopt body is durable's adopt body
// (durable.AppendAdoptBody), what the single-node WAL writes after its
// stamp, followed by the repair's undone, redone and newly-executed counts
// as uvarints. A checkpoint record has no body. Map keys are sorted, so
// encoding is deterministic: the same record always produces the same bytes
// on every node.

const (
	recSpec       byte = 1
	recEntry      byte = 2
	recRepair     byte = 3
	recCheckpoint byte = 4
	recAdopt      byte = 5
)

// recordsContentType marks a binary framed-record request/response body on
// the /internal/v1/commits wire (JSON remains the curl-able default).
const recordsContentType = "application/x-selfheal-records"

// encodeRecord appends the binary payload (unframed) of rec to dst.
func encodeRecord(dst []byte, rec *Record) []byte {
	switch rec.Kind {
	case KindSpec:
		dst = append(dst, recSpec)
	case KindEntry:
		dst = append(dst, recEntry)
	case KindRepair:
		dst = append(dst, recRepair)
	case KindCheckpoint:
		dst = append(dst, recCheckpoint)
	case KindAdopt:
		dst = append(dst, recAdopt)
	default:
		// Unknown kinds cannot be stamped (the stamper only emits the kinds
		// above); encode as an explicit zero so decode rejects it loudly.
		dst = append(dst, 0)
	}
	dst = durable.AppendUvarint(dst, uint64(rec.Seq))
	dst = durable.AppendString(dst, rec.Origin)
	switch rec.Kind {
	case KindSpec:
		dst = durable.AppendString(dst, rec.Run)
		doc, err := json.Marshal(rec.Spec)
		if err != nil || rec.Spec == nil {
			doc = nil
		}
		dst = durable.AppendBytes(dst, doc)
		keys := make([]string, 0, len(rec.Init))
		for k := range rec.Init {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		dst = durable.AppendUvarint(dst, uint64(len(keys)))
		for _, k := range keys {
			dst = durable.AppendString(dst, k)
			dst = durable.AppendVarint(dst, rec.Init[k])
		}
	case KindEntry:
		dst = durable.AppendEntryBody(dst, rec.Entry)
	case KindRepair:
		dst = durable.AppendUvarint(dst, uint64(len(rec.Bad)))
		for _, id := range rec.Bad {
			dst = durable.AppendString(dst, string(id))
		}
	case KindAdopt:
		dst = durable.AppendAdoptBody(dst, rec.Adopt.Adopt)
		dst = durable.AppendUvarint(dst, uint64(rec.Adopt.Undone))
		dst = durable.AppendUvarint(dst, uint64(rec.Adopt.Redone))
		dst = durable.AppendUvarint(dst, uint64(rec.Adopt.NewExecuted))
	}
	return dst
}

// decodeRecord decodes one binary record payload.
func decodeRecord(p []byte) (*Record, error) {
	r := durable.NewReader(p)
	kind := r.Byte()
	rec := &Record{
		Seq:    int(r.Uvarint()),
		Origin: r.Str(),
	}
	switch kind {
	case recSpec:
		rec.Kind = KindSpec
		rec.Run = r.Str()
		if doc := r.Bytes(); len(doc) > 0 {
			rec.Spec = new(wfjson.SpecJSON)
			if err := json.Unmarshal(doc, rec.Spec); err != nil {
				return nil, fmt.Errorf("cluster: record codec: spec document: %w", err)
			}
		}
		if n := r.Uvarint(); n > 0 && r.Err() == nil {
			rec.Init = make(map[string]int64)
			for i := uint64(0); i < n && r.Err() == nil; i++ {
				k := r.Str()
				rec.Init[k] = r.Varint()
			}
		}
	case recEntry:
		rec.Kind = KindEntry
		rec.Entry = r.EntryBody()
	case recRepair:
		rec.Kind = KindRepair
		n := r.Uvarint()
		rec.Bad = make([]wlog.InstanceID, 0, min(n, uint64(len(p))))
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			rec.Bad = append(rec.Bad, wlog.InstanceID(r.Str()))
		}
	case recCheckpoint:
		rec.Kind = KindCheckpoint
	case recAdopt:
		rec.Kind = KindAdopt
		rec.Adopt = &machine.Effect{Adopt: r.AdoptBody()}
		rec.Adopt.Undone, rec.Adopt.Redone, rec.Adopt.NewExecuted = int(r.Uvarint()), int(r.Uvarint()), int(r.Uvarint())
	default:
		return nil, fmt.Errorf("cluster: record codec: unknown kind byte %d", kind)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("cluster: record codec: %w", err)
	}
	return rec, nil
}

// specDoc returns a fresh copy of the run document a spec record's payload embeds,
// byte for byte as the stamper encoded it, without decoding the document.
func specDoc(p []byte) ([]byte, error) {
	r := durable.NewReader(p)
	if kind := r.Byte(); kind != recSpec {
		return nil, fmt.Errorf("cluster: record codec: kind byte %d is not a spec record", kind)
	}
	r.Uvarint()
	r.Str()
	r.Str()
	doc := r.Bytes()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("cluster: record codec: %w", err)
	}
	return doc, nil
}

// encodeFramedRecord appends rec as one CRC-framed payload to dst — the
// unit both the journal and the replication wire are built from. Only the
// stamper encodes a record for the stream; every other node stores and
// forwards the stamper's bytes.
func encodeFramedRecord(dst []byte, rec *Record) []byte {
	return durable.AppendFrame(dst, encodeRecord(nil, rec))
}
