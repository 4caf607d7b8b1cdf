// Package scenario builds ready-to-run attack/recovery scenarios shared by
// tests, examples and benchmarks: the paper's Figure 1 workload, randomized
// workloads over generated workflows, and the clean (attack-free) reference
// execution used as the strict-correctness oracle.
package scenario

import (
	"context"
	"fmt"
	"math/rand"

	"selfheal/internal/data"
	"selfheal/internal/engine"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// Scenario is one executed workload: an engine whose log and store hold the
// committed history, the run→spec map the recovery analyzer needs, and the
// set of malicious instances the IDS reports.
type Scenario struct {
	Engine *engine.Engine
	Specs  map[string]*wf.Spec
	// Bad lists the malicious instances (the IDS report B).
	Bad []wlog.InstanceID
}

// Store returns the scenario's store.
func (s *Scenario) Store() *data.Store { return s.Engine.Store() }

// Log returns the scenario's log.
func (s *Scenario) Log() *wlog.Log { return s.Engine.Log() }

// Fig1 executes the paper's Figure 1 workload. With attack=true, task t1 of
// run r1 is corrupted (writes a=100 instead of a=1), which drives run r1
// down the wrong path P1 = t1 t2 t3 t4 t6 and infects t2, t4, t8 and t10 —
// reproducing the system log L1 = t1 t7 t2 t8 t3 t4 t9 t6 t10. With
// attack=false the clean history (path P2 = t1 t2 t5 t6) is produced.
func Fig1(attack bool) (*Scenario, error) {
	wf1, wf2 := wf.Fig1Specs()
	st := data.NewStore()
	st.Init("e", 0) // read by t6 when t5 never ran
	eng := engine.New(st, wlog.New())
	if attack {
		eng.AddAttack(engine.Attack{
			Run: "r1", Task: "t1",
			Compute: func(map[data.Key]data.Value) map[data.Key]data.Value {
				return map[data.Key]data.Value{"a": 100}
			},
		})
	}
	r1, err := eng.NewRun("r1", wf1)
	if err != nil {
		return nil, err
	}
	r2, err := eng.NewRun("r2", wf2)
	if err != nil {
		return nil, err
	}
	// L1 interleaving: t1 t7 t2 t8 [t3 t4 | t5] t9 t6 t10.
	order := []int{0, 1, 0, 1, 0, 0, 1, 0, 1}
	if !attack {
		order = []int{0, 1, 0, 1, 0, 1, 0, 1}
	}
	if err := eng.Interleave(context.Background(), []*engine.Run{r1, r2}, order, 0); err != nil {
		return nil, err
	}
	s := &Scenario{
		Engine: eng,
		Specs:  map[string]*wf.Spec{"r1": wf1, "r2": wf2},
	}
	if attack {
		s.Bad = []wlog.InstanceID{wlog.FormatInstance("r1", "t1", 1)}
	}
	return s, nil
}

// RandomConfig controls random scenario generation.
type RandomConfig struct {
	// Runs is the number of concurrent workflow runs.
	Runs int
	// Gen configures each generated workflow.
	Gen wf.GenConfig
	// Attacks is the number of task corruptions to inject.
	Attacks int
	// Forged is the number of forged (non-spec) tasks to inject.
	Forged int
}

// DefaultRandomConfig returns a medium-sized randomized workload.
func DefaultRandomConfig() RandomConfig {
	return RandomConfig{Runs: 3, Gen: wf.DefaultGenConfig(), Attacks: 2, Forged: 1}
}

// Random builds and executes a randomized workload from seed: cfg.Runs
// generated workflows over a shared key pool, interleaved pseudo-randomly,
// with cfg.Attacks task corruptions and cfg.Forged forged tasks. The same
// seed with attack=false executes the identical workload cleanly (same
// specs, same interleaving, no corruption) for use as the strict-correctness
// oracle.
func Random(seed int64, cfg RandomConfig, attack bool) (*Scenario, error) {
	rng := rand.New(rand.NewSource(seed))

	// Build specs and initial values first, identically for both modes.
	specs := make([]*wf.Spec, cfg.Runs)
	for i := range specs {
		specs[i] = wf.Generate(fmt.Sprintf("gwf%d", i), cfg.Gen, rng)
	}
	st := data.NewStore()
	for i := 0; i < cfg.Gen.Keys; i++ {
		st.Init(wf.GenKey(i), data.Value(rng.Intn(20)))
	}
	eng := engine.New(st, wlog.New())

	s := &Scenario{Engine: eng, Specs: make(map[string]*wf.Spec, cfg.Runs)}
	runs := make([]*engine.Run, cfg.Runs)
	for i, spec := range specs {
		id := fmt.Sprintf("run%d", i)
		r, err := eng.NewRun(id, spec)
		if err != nil {
			return nil, err
		}
		runs[i] = r
		s.Specs[id] = spec
	}

	// Attack plan: drawn from rng identically in both modes so the clean
	// twin consumes the same random stream.
	type hit struct {
		run  int
		task wf.TaskID
	}
	var hits []hit
	for i := 0; i < cfg.Attacks; i++ {
		run := rng.Intn(cfg.Runs)
		ids := taskIDs(specs[run])
		hits = append(hits, hit{run: run, task: ids[rng.Intn(len(ids))]})
	}
	if attack {
		for _, h := range hits {
			h := h
			corrupt := data.Value(1000 + rng.Intn(1000))
			eng.AddAttack(engine.Attack{
				Run:  fmt.Sprintf("run%d", h.run),
				Task: h.task,
				Compute: func(map[data.Key]data.Value) map[data.Key]data.Value {
					out := make(map[data.Key]data.Value)
					for _, k := range specs[h.run].Task(h.task).Writes {
						out[k] = corrupt
					}
					return out
				},
			})
		}
	} else {
		// Burn the same number of rng draws to keep the streams aligned.
		for range hits {
			rng.Intn(1000)
		}
	}

	// Pseudo-random interleaving, identical for both modes.
	order := make([]int, 0, cfg.Runs*cfg.Gen.Tasks*2)
	for i := 0; i < cfg.Runs*cfg.Gen.Tasks*2; i++ {
		order = append(order, rng.Intn(cfg.Runs))
	}
	if err := eng.Interleave(context.Background(), runs, order, 0); err != nil {
		return nil, err
	}

	// Forged injections commit after the workload (the attacker writing
	// trash that later reads may consume requires interleaved injection;
	// appending keeps the clean twin's history identical while still
	// corrupting every later read — recovery must delete them).
	if attack {
		for i := 0; i < cfg.Forged; i++ {
			k := wf.GenKey(rng.Intn(cfg.Gen.Keys))
			inst, err := eng.InjectForged("", wf.TaskID(fmt.Sprintf("forged%d", i)),
				nil, map[data.Key]data.Value{k: data.Value(-9000 - i)})
			if err != nil {
				return nil, err
			}
			s.Bad = append(s.Bad, inst)
		}
		// The IDS reports every instance whose execution was corrupted.
		// A hit on a task the run never executed (wrong branch) simply
		// never fires.
		for _, h := range hits {
			id := wlog.FormatInstance(fmt.Sprintf("run%d", h.run), h.task, 1)
			if _, ok := eng.Log().Get(id); ok {
				s.Bad = append(s.Bad, id)
			}
		}
		s.Bad = dedupe(s.Bad)
	}
	return s, nil
}

func taskIDs(s *wf.Spec) []wf.TaskID {
	out := make([]wf.TaskID, 0, len(s.Tasks))
	for i := 0; i < len(s.Tasks); i++ {
		out = append(out, wf.TaskID(fmt.Sprintf("t%d", i)))
	}
	return out
}

func dedupe(ids []wlog.InstanceID) []wlog.InstanceID {
	seen := make(map[wlog.InstanceID]bool, len(ids))
	out := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}
