package wfjson

import (
	"context"
	"strings"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/engine"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

const fig1JSON = `{
  "name": "fig1-wf1", "start": "t1",
  "init": {"e": 0},
  "tasks": [
    {"id": "t1", "writes": ["a"], "bias": 1, "next": ["t2"]},
    {"id": "t2", "reads": ["a"], "writes": ["b"], "bias": 1, "next": ["t3", "t5"],
     "choose": {"key": "a", "threshold": 50, "low": "t5", "high": "t3"}},
    {"id": "t3", "writes": ["c"], "bias": 42, "next": ["t4"]},
    {"id": "t4", "reads": ["b", "c"], "writes": ["d"], "next": ["t6"]},
    {"id": "t5", "reads": ["b"], "writes": ["e"], "bias": 5, "next": ["t6"]},
    {"id": "t6", "reads": ["e"], "writes": ["f"], "bias": 7}
  ]
}`

func TestDecodeValidSpec(t *testing.T) {
	spec, init, err := Decode(strings.NewReader(fig1JSON))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "fig1-wf1" || spec.Start != "t1" {
		t.Errorf("header = %s/%s", spec.Name, spec.Start)
	}
	if len(spec.Tasks) != 6 {
		t.Fatalf("%d tasks", len(spec.Tasks))
	}
	if init["e"] != 0 {
		t.Errorf("init = %v", init)
	}
	if b := spec.Task("t2").Body; b != (wf.Body{Bias: 1, Threshold: 50, Sum: true, Branch: true, Key: 0, Low: 1, High: 0}) {
		t.Errorf("choice node compiled to branch %+v", b)
	}
}

func TestDecodedSpecExecutes(t *testing.T) {
	spec, init, err := Decode(strings.NewReader(fig1JSON))
	if err != nil {
		t.Fatal(err)
	}
	st := data.NewStore()
	for k, v := range init {
		st.Init(k, v)
	}
	eng := engine.New(st, wlog.New())
	r, err := eng.NewRun("main", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunAll(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	// Clean path: t1(a=1) t2(b=2) t5(e=7) t6(f=14).
	snap := eng.Store().Snapshot()
	if snap["a"] != 1 || snap["b"] != 2 || snap["e"] != 7 || snap["f"] != 14 {
		t.Errorf("final state = %v", snap)
	}
	if _, ok := snap["c"]; ok {
		t.Error("wrong branch taken")
	}
}

func TestDecodeRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"not json", `{`},
		{"unknown field", `{"name":"x","start":"t","banana":1,"tasks":[{"id":"t"}]}`},
		{"empty task id", `{"name":"x","start":"t","tasks":[{"id":""}]}`},
		{"duplicate task", `{"name":"x","start":"t","tasks":[{"id":"t"},{"id":"t"}]}`},
		{"undefined edge", `{"name":"x","start":"t","tasks":[{"id":"t","next":["ghost"]}]}`},
		{"choice without choose", `{"name":"x","start":"t","tasks":[{"id":"t","next":["a","b"]},{"id":"a"},{"id":"b"}]}`},
		{"choose beyond next", `{"name":"x","start":"t","tasks":[{"id":"t","next":["a","b"],"choose":{"key":"k","threshold":1,"low":"a","high":"c"}},{"id":"a","next":["c"]},{"id":"b"},{"id":"c"}]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := Decode(strings.NewReader(c.json)); err == nil {
				t.Errorf("accepted: %s", c.json)
			}
		})
	}
}

func TestNonChoiceWithChooseRejected(t *testing.T) {
	bad := `{"name":"x","start":"t","tasks":[
	  {"id":"t","next":["u"],"choose":{"key":"k","threshold":1,"low":"u","high":"u"}},
	  {"id":"u"}]}`
	if _, _, err := Decode(strings.NewReader(bad)); err == nil {
		t.Error("single-successor task with choose accepted")
	}
}
