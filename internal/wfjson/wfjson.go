// Package wfjson decodes workflow specifications from JSON: the documents
// POST /api/v1/runs accepts, the spec records of the WAL and the cluster
// journal, and wfrun's input. Task bodies are declarative and stay data
// when compiled (wf.Body): every task writes, to each key in its write set,
// the sum of its reads plus a per-task bias; choice nodes branch on a
// threshold over one key. This covers the
// value-sensitive workflows the recovery theory needs while keeping
// specifications serializable, and a compiled spec one task array with no
// closures.
package wfjson

import (
	"encoding/json"
	"fmt"
	"io"

	"selfheal/internal/data"
	"selfheal/internal/wf"
)

// ChooseJSON declares a threshold branch: pick Low when the key's value is
// below Threshold, High otherwise.
type ChooseJSON struct {
	Key       string `json:"key"`
	Threshold int64  `json:"threshold"`
	Low       string `json:"low"`
	High      string `json:"high"`
}

// TaskJSON declares one task.
type TaskJSON struct {
	ID     string      `json:"id"`
	Next   []string    `json:"next,omitempty"`
	Reads  []string    `json:"reads,omitempty"`
	Writes []string    `json:"writes,omitempty"`
	Bias   int64       `json:"bias,omitempty"`
	Choose *ChooseJSON `json:"choose,omitempty"`
}

// SpecJSON is the on-disk workflow format.
type SpecJSON struct {
	Name  string           `json:"name"`
	Start string           `json:"start"`
	Tasks []TaskJSON       `json:"tasks"`
	Init  map[string]int64 `json:"init,omitempty"`
}

// Decode reads a SpecJSON and builds the validated workflow specification
// plus the initial store values it declares.
func Decode(r io.Reader) (*wf.Spec, map[data.Key]data.Value, error) {
	return DecodeIn(nil, r)
}

// DecodeIn is Decode compiling through the intern table in (BuildIn).
func DecodeIn(in *wf.Interner, r io.Reader) (*wf.Spec, map[data.Key]data.Value, error) {
	var sj SpecJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sj); err != nil {
		return nil, nil, fmt.Errorf("wfjson: %w", err)
	}
	return BuildIn(in, &sj)
}

// Build converts a parsed SpecJSON into a validated, sealed specification
// (its footprint computed once) that shares nothing with other specs.
func Build(sj *SpecJSON) (*wf.Spec, map[data.Key]data.Value, error) {
	return BuildIn(nil, sj)
}

// BuildIn is Build compiling through a service's intern table: the spec's
// strings, lists and footprint are the table's canonical, read-only copies,
// shared with every other spec the table compiled. A nil table interns
// nothing.
func BuildIn(in *wf.Interner, sj *SpecJSON) (*wf.Spec, map[data.Key]data.Value, error) {
	spec := &wf.Spec{
		Name:  sj.Name,
		Start: in.TaskID(sj.Start),
		Tasks: make([]wf.Task, len(sj.Tasks)),
	}
	for i, tj := range sj.Tasks {
		if tj.ID == "" {
			return nil, nil, fmt.Errorf("wfjson: task with empty id")
		}
		t := &spec.Tasks[i]
		*t = in.Task(tj.ID, tj.Next, tj.Reads, tj.Writes, data.Value(tj.Bias))
		if c := tj.Choose; c != nil {
			if err := t.BranchOn(data.Key(c.Key), data.Value(c.Threshold), wf.TaskID(c.Low), wf.TaskID(c.High)); err != nil {
				return nil, nil, fmt.Errorf("wfjson: %w", err)
			}
		}
	}
	wf.SortTasks(spec.Tasks)
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	in.Seal(spec)
	init := make(map[data.Key]data.Value, len(sj.Init))
	for k, v := range sj.Init {
		init[in.Key(k)] = data.Value(v)
	}
	return spec, init, nil
}
