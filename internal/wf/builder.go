package wf

import (
	"fmt"

	"selfheal/internal/data"
)

// Builder assembles a Spec incrementally. It exists so that examples and
// tests can declare workflows without writing task literals; Build sorts
// the tasks by ID and validates the result.
type Builder struct {
	spec *Spec
	err  error
}

// NewBuilder starts a workflow named name whose entry task is start.
func NewBuilder(name string, start TaskID) *Builder {
	return &Builder{spec: &Spec{Name: name, Start: start}}
}

// TaskBuilder configures one task: the i-th the Builder declared.
type TaskBuilder struct {
	b *Builder
	i int
}

func (tb *TaskBuilder) t() *Task { return &tb.b.spec.Tasks[tb.i] }

// End returns the parent Builder so task declarations can be chained.
func (tb *TaskBuilder) End() *Builder { return tb.b }

// Task declares (or returns, if already declared) the task with the given ID.
func (b *Builder) Task(id TaskID) *TaskBuilder {
	for i := range b.spec.Tasks {
		if b.spec.Tasks[i].ID == id {
			return &TaskBuilder{b: b, i: i}
		}
	}
	b.spec.Tasks = append(b.spec.Tasks, Task{ID: id})
	return &TaskBuilder{b: b, i: len(b.spec.Tasks) - 1}
}

// Reads sets the task's read set.
func (tb *TaskBuilder) Reads(keys ...data.Key) *TaskBuilder {
	tb.t().Reads = keys
	return tb
}

// Writes sets the task's write set.
func (tb *TaskBuilder) Writes(keys ...data.Key) *TaskBuilder {
	tb.t().Writes = keys
	return tb
}

// Compute sets the task's compute function.
func (tb *TaskBuilder) Compute(f ComputeFunc) *TaskBuilder {
	tb.t().Compute = f
	return tb
}

// Then appends successor edges.
func (tb *TaskBuilder) Then(next ...TaskID) *TaskBuilder {
	tb.t().Next = append(tb.t().Next, next...)
	return tb
}

// ChooseBy sets the branch-selection function for a choice node.
func (tb *TaskBuilder) ChooseBy(f ChooseFunc) *TaskBuilder {
	tb.t().Choose = f
	return tb
}

// Build validates and returns the assembled specification.
func (b *Builder) Build() (*Spec, error) {
	if b.err != nil {
		return nil, b.err
	}
	SortTasks(b.spec.Tasks)
	if err := b.spec.Validate(); err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	return b.spec, nil
}

// MustBuild is Build for static specifications that cannot fail at run time.
func (b *Builder) MustBuild() *Spec {
	s, err := b.Build()
	if err != nil {
		panic(err)
	}
	return s
}

// SumCompute returns a ComputeFunc writing, to every key of writes, the sum
// of all read values plus bias. It is the workhorse task body for tests,
// examples and generated workflows: deterministic and value-sensitive, so
// corrupt inputs visibly propagate.
func SumCompute(bias data.Value, writes ...data.Key) ComputeFunc {
	return func(reads map[data.Key]data.Value) map[data.Key]data.Value {
		var sum data.Value
		for _, v := range reads {
			sum += v
		}
		out := make(map[data.Key]data.Value, len(writes))
		for i, k := range writes {
			out[k] = sum + bias + data.Value(i)
		}
		return out
	}
}

// ThresholdChoose returns a ChooseFunc selecting ifLow when the value of key
// is below threshold and ifHigh otherwise. Missing keys read as 0.
func ThresholdChoose(key data.Key, threshold data.Value, ifLow, ifHigh TaskID) ChooseFunc {
	return func(reads map[data.Key]data.Value) TaskID {
		if reads[key] < threshold {
			return ifLow
		}
		return ifHigh
	}
}
