package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own spans (ISSUE 14 "Traced run"): recorded from this
// package around the calls into each layer, kept in memory and written out at
// exit. Spans inside the program are a later issue. A nil *tracer is the off
// switch: every method is a no-op, so untraced runs pay one nil check.

// spanRecord is one finished span. Times are nanoseconds since the tracer was
// created.
type spanRecord struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"` // run or incident ID shared by one request's spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []spanRecord
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef names a parent span; the zero value means "no parent".
type spanRef struct {
	id    int64
	trace string
}

type span struct {
	tr    *tracer
	rec   spanRecord
	start time.Time
}

// root starts a span with no parent whose trace ID is id.
func (t *tracer) root(name, id string) *span {
	return t.start(spanRef{trace: id}, name)
}

func (t *tracer) start(parent spanRef, name string) *span {
	if t == nil {
		return nil
	}
	now := time.Now()
	return &span{tr: t, start: now, rec: spanRecord{
		ID: t.next.Add(1), Parent: parent.id, Trace: parent.trace, Name: name,
		Start: int64(now.Sub(t.epoch)),
	}}
}

func (s *span) ref() spanRef {
	if s == nil {
		return spanRef{}
	}
	return spanRef{id: s.rec.ID, trace: s.rec.Trace}
}

// end finishes the span and returns its duration (0 when tracing is off).
func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	s.rec.End = s.rec.Start + int64(d)
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, s.rec)
	s.tr.mu.Unlock()
	return d
}

// timed runs fn inside a span named name under parent and returns its
// duration; it measures even when tracing is off (the layer walk needs the
// number either way).
func (t *tracer) timed(parent spanRef, name string, fn func(spanRef)) time.Duration {
	sp := t.start(parent, name)
	start := time.Now()
	fn(sp.ref())
	d := time.Since(start)
	sp.end()
	return d
}

// durationsUS returns the durations, in microseconds, of every span named
// name.
func (t *tracer) durationsUS(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].End-t.spans[i].Start)/1e3)
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time in nanoseconds: a
// span's duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int64][]*spanRecord)
	for i := range t.spans {
		if p := t.spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], &t.spans[i])
		}
	}
	out := make(map[string]int64)
	for i := range t.spans {
		s := &t.spans[i]
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		covered, edge := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// traceFile is the document written to bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Env      map[string]any     `json:"env"`
	Registry map[string]float64 `json:"registry_delta"`
	Metrics  map[string]metric  `json:"metrics"`
	SelfNS   map[string]int64   `json:"self_ns_by_span"`
	Spans    []spanRecord       `json:"spans"`
}

func (t *tracer) write(dir string, doc traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	doc.Spans = t.spans
	t.mu.Unlock()
	path, err := filepath.Abs(filepath.Join(dir, "trace-"+doc.Workload+".json"))
	if err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
