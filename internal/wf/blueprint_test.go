package wf

import (
	"math/rand"
	"testing"

	"selfheal/internal/data"
)

// Generated blueprints compile to valid specs across many seeds and shapes,
// and never contain cycles (every instance executes with visit 1).
func TestGenerateBlueprintAlwaysValid(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := GenConfig{
			Tasks:      2 + rng.Intn(10),
			Keys:       1 + rng.Intn(6),
			MaxReads:   rng.Intn(4),
			MaxWrites:  rng.Intn(3),
			BranchProb: rng.Float64(),
			Prefix:     "p_",
		}
		bp := GenerateBlueprint("g", cfg, rng)
		spec, err := bp.Spec()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(spec.Tasks) != cfg.Tasks {
			t.Fatalf("seed %d: %d tasks, want %d", seed, len(spec.Tasks), cfg.Tasks)
		}
		for _, task := range spec.Tasks {
			if len(task.Next) > 2 {
				t.Fatalf("seed %d: task %s has %d successors", seed, task.ID, len(task.Next))
			}
		}
	}
}

func TestGenerateBlueprintDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Prefix = "d_"
	a := GenerateBlueprint("g", cfg, rand.New(rand.NewSource(7)))
	b := GenerateBlueprint("g", cfg, rand.New(rand.NewSource(7)))
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatal("same seed, different shapes")
	}
	for i := range a.Tasks {
		if a.Tasks[i].ID != b.Tasks[i].ID || len(a.Tasks[i].Next) != len(b.Tasks[i].Next) {
			t.Fatalf("task %d differs across identical seeds", i)
		}
	}
}

// Blueprint execution is deterministic: two independent executions of the
// compiled spec over the declared inits produce identical stores — the
// property the fuzzer's benign-equality oracle is built on.
func TestBlueprintExecutionDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Prefix = "x_"
	bp := GenerateBlueprint("g", cfg, rand.New(rand.NewSource(3)))

	exec := func() *data.Store {
		store := data.NewStore()
		for k, v := range bp.Init {
			store.Init(k, v)
		}
		spec, err := bp.Spec()
		if err != nil {
			t.Fatal(err)
		}
		runBlueprintSpec(t, store, spec)
		return store
	}
	a, b := exec(), exec()
	if !data.Equal(a, b) {
		t.Fatalf("nondeterministic execution:\n%s", data.Diff(a, b))
	}
}

func TestBlueprintSpecRejectsDuplicateTask(t *testing.T) {
	bp := &Blueprint{
		Name:  "dup",
		Start: "a",
		Tasks: []BlueprintTask{
			{ID: "a", Writes: []data.Key{"k"}},
			{ID: "a", Writes: []data.Key{"k"}},
		},
	}
	if _, err := bp.Spec(); err == nil {
		t.Fatal("duplicate task accepted")
	}
}

// runBlueprintSpec serially executes spec's tasks against store following
// choice decisions, without the engine (wf has no engine dependency).
func runBlueprintSpec(t *testing.T, store *data.Store, spec *Spec) {
	t.Helper()
	cur := spec.Start
	pos := 1.0
	for steps := 0; ; steps++ {
		if steps > 10*len(spec.Tasks) {
			t.Fatal("blueprint execution does not terminate")
		}
		task := spec.Task(cur)
		reads := make(map[data.Key]data.Value, len(task.Reads))
		for _, k := range task.Reads {
			if ver, ok := store.Get(k); ok {
				reads[k] = ver.Value
			}
		}
		next := task.Eval(reads, func(k data.Key, v data.Value) {
			store.Write(k, v, pos, string(cur), false)
			pos++
		})
		if next == "" {
			return
		}
		cur = next
	}
}
