package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"selfheal/internal/data"
	"selfheal/internal/engine"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// genConfig is the workflow shape every workload uses (ISSUE 14 load model):
// 8 tasks over a 6-key tenant-private pool, at most 2 reads and 2 writes per
// task, branch probability 0.3.
func genConfig(prefix string) wf.GenConfig {
	return wf.GenConfig{Tasks: 8, Keys: 6, MaxReads: 2, MaxWrites: 2, BranchProb: 0.3, Prefix: prefix}
}

// runInput is one generated workflow run: the wire body of its POST
// /api/v1/runs and the keys a forge placed after this run may safely touch.
type runInput struct {
	id   string
	body []byte
	doc  *wfjson.SpecJSON // kept on traced runs only: the layer walk submits below HTTP
	// safeKeys exist in the store once this run is done whatever path it
	// took: the keys its Init block seeds plus the writes of its start task
	// (t0 executes unconditionally). A forge that wrote a key no run had
	// created yet would make the next run's first-writer-wins Init skip that
	// key, and undoing the forge would then leave it absent — damage by
	// construction of the test, not by the attack.
	safeKeys []string
}

// tenant is one sequential client session: it owns the key prefix "a<n>_" and
// submits its next run only after the previous one is done, so its runs form
// one dependence chain through shared keys while different tenants never
// share a key.
type tenant struct {
	name string
	runs []runInput

	// mu makes the session sequential when open-loop arrivals overlap.
	mu   sync.Mutex
	next int
}

// take returns the tenant's next unsubmitted run. Callers hold t.mu (paced
// phase) or own the tenant exclusively (closed loops, incidents).
func (t *tenant) take() (*runInput, error) {
	if t.next >= len(t.runs) {
		return nil, fmt.Errorf("tenant %s: out of generated runs (%d)", t.name, len(t.runs))
	}
	r := &t.runs[t.next]
	t.next++
	return r, nil
}

// last returns the most recently taken run.
func (t *tenant) last() *runInput { return &t.runs[t.next-1] }

// inputs is everything a workload sends, generated from the seed alone, plus
// the attack-free reference store those runs produce.
type inputs struct {
	tenants []*tenant
	// reference is the store after a serial, attack-free execution of every
	// generated run, tenant by tenant (tenants share no key, so the order
	// across tenants does not matter — fuzz.BenignStore's argument).
	reference map[string]int64
	// specs holds every generated run's compiled spec; kept on traced runs
	// only, whose layer walk calls recovery functions directly.
	specs map[string]*wf.Spec
}

// generate builds per[i] runs for tenant i, named prefix+i. Every tenant
// draws from its own PRNG stream derived from seed and its index, so the
// inputs of tenant i do not depend on how many tenants or runs the workload
// asks for elsewhere.
func generate(seed int64, prefix string, per []int, keepSpecs bool) (*inputs, error) {
	in := &inputs{tenants: make([]*tenant, len(per))}
	if keepSpecs {
		in.specs = make(map[string]*wf.Spec)
	}
	store := data.NewStore()
	eng := engine.New(store, wlog.New())
	for i, n := range per {
		t := &tenant{name: fmt.Sprintf("%s%d", prefix, i), runs: make([]runInput, n)}
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		cfg := genConfig(t.name + "_")
		for j := range t.runs {
			id := fmt.Sprintf("%s-r%d", t.name, j)
			bp := wf.GenerateBlueprint(id, cfg, rng)
			doc := wfjson.FromBlueprint(bp)
			body, err := json.Marshal(map[string]any{"id": id, "spec": doc})
			if err != nil {
				return nil, fmt.Errorf("generate %s: %w", id, err)
			}
			spec, err := bp.Spec()
			if err != nil {
				return nil, fmt.Errorf("generate %s: %w", id, err)
			}
			safe := map[string]bool{}
			for k, v := range bp.Init {
				safe[string(k)] = true
				if _, ok := store.Get(k); !ok {
					store.Init(k, v)
				}
			}
			for _, k := range bp.Tasks[0].Writes {
				safe[string(k)] = true
			}
			run, err := eng.NewRun(id, spec)
			if err != nil {
				return nil, fmt.Errorf("generate %s: %w", id, err)
			}
			if err := eng.RunAll(context.Background(), run); err != nil {
				return nil, fmt.Errorf("generate %s: reference run: %w", id, err)
			}
			r := runInput{id: id, body: body}
			for k := range safe {
				r.safeKeys = append(r.safeKeys, k)
			}
			sort.Strings(r.safeKeys)
			if keepSpecs {
				r.doc = doc
				in.specs[id] = spec
			}
			t.runs[j] = r
		}
		in.tenants[i] = t
	}
	snap := store.Snapshot()
	in.reference = make(map[string]int64, len(snap))
	for k, v := range snap {
		in.reference[string(k)] = int64(v)
	}
	return in, nil
}

// fingerprint condenses the generated inputs into one number, so a test (and
// the environment block) can show that the same seed gave the same inputs.
func (in *inputs) fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(b []byte) {
		for _, c := range b {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	for _, t := range in.tenants {
		for i := range t.runs {
			mix(t.runs[i].body)
		}
	}
	return h
}

// forgeInput is one attack: a forged task instance that overwrites one key of
// a tenant between two of its runs.
type forgeInput struct {
	Run    string           `json:"run"`
	Task   string           `json:"task"`
	Reads  []string         `json:"reads,omitempty"`
	Writes map[string]int64 `json:"writes"`
}

// forgeAfter builds the forge that follows run r of its tenant: it reads one
// safe key and corrupts another (or the same, when r has only one).
func forgeAfter(r *runInput, n int, rng *rand.Rand) forgeInput {
	keys := r.safeKeys
	w := keys[rng.Intn(len(keys))]
	return forgeInput{
		Run:    fmt.Sprintf("atk-%s-%d", r.id, n),
		Task:   "x",
		Reads:  []string{keys[rng.Intn(len(keys))]},
		Writes: map[string]int64{w: int64(1000 + rng.Intn(9000))},
	}
}

// poissonDue returns n arrival offsets, in seconds, of a Poisson process at
// the given rate. ids.PoissonTimes draws a random count for a fixed horizon;
// the benchmark needs a fixed count so that every commit does identical work.
func poissonDue(n int, rate float64, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = t
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation; xs is sorted
// in place. It returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}
