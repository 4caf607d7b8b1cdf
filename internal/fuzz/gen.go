package fuzz

import (
	"fmt"
	"math/rand"

	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// GenParams sizes the generated schedules.
type GenParams struct {
	// Runs is the number of workflow submissions per episode.
	Runs int
	// Tasks, Keys, MaxReads, MaxWrites and BranchProb shape each generated
	// blueprint (wf.GenConfig); zero values take wf defaults.
	Tasks      int
	Keys       int
	MaxReads   int
	MaxWrites  int
	BranchProb float64
	// Forges is the number of forged task instances interleaved with the
	// submissions.
	Forges int
	// FalseAccuseProb is the probability an alert additionally accuses a
	// legitimate start task (falsely) — the repair must still converge to
	// the attack-free state (the accused task is undone and re-executed
	// with identical results).
	FalseAccuseProb float64
	// Checkpoints and Restarts interleave checkpoints (on every target)
	// and crash-restarts (only on targets that support them).
	Checkpoints int
	Restarts    int
	// DrainProb is the probability of a mid-schedule drain between phases,
	// creating "repair finished, then fresh attacks" interleavings.
	DrainProb float64
}

// DefaultParams returns the smoke-sized campaign parameters.
func DefaultParams() GenParams {
	return GenParams{
		Runs: 3, Tasks: 6, Keys: 5, MaxReads: 2, MaxWrites: 2,
		BranchProb: 0.3, Forges: 3, FalseAccuseProb: 0.3,
		DrainProb: 0.15,
	}
}

// RunPrefix returns the key-pool prefix of generated run i. Prefixes are
// disjoint across runs, so the combined attack-free final state is
// order-independent — the property the benign-equality oracle needs.
func RunPrefix(i int) string {
	return fmt.Sprintf("r%d_", i)
}

// GenSchedule generates a deterministic schedule from seed. The first op is
// always a submit (forges corrupt the data of already-submitted runs, whose
// init values are committed synchronously at submission); every forge is
// alerted before the schedule ends, so the final drained state must equal
// the attack-free execution.
func GenSchedule(seed int64, p GenParams) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	if p.Runs < 1 {
		p.Runs = 1
	}

	cfgOf := func(i int) wf.GenConfig {
		cfg := wf.DefaultGenConfig()
		if p.Tasks > 0 {
			cfg.Tasks = p.Tasks
		}
		if p.Keys > 0 {
			cfg.Keys = p.Keys
		}
		if p.MaxReads > 0 {
			cfg.MaxReads = p.MaxReads
		}
		cfg.MaxWrites = p.MaxWrites
		cfg.BranchProb = p.BranchProb
		cfg.Prefix = RunPrefix(i)
		return cfg
	}

	sch := &Schedule{Seed: seed}
	// Pending op budget, spent in random order after the mandatory first
	// submit. Forges/checkpoints/restarts draw targets from the runs
	// submitted so far.
	type pending struct{ kind OpKind }
	var deck []pending
	for i := 1; i < p.Runs; i++ {
		deck = append(deck, pending{OpSubmit})
	}
	for i := 0; i < p.Forges; i++ {
		deck = append(deck, pending{OpForge})
	}
	for i := 0; i < p.Checkpoints; i++ {
		deck = append(deck, pending{OpCheckpoint})
	}
	for i := 0; i < p.Restarts; i++ {
		deck = append(deck, pending{OpRestart})
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })

	nextRun, nextAtk := 0, 0
	// victims holds runs submitted since the latest checkpoint: the only
	// runs whose instances alerts may (falsely) accuse, because a
	// crash-restart replays from the snapshot and earlier log entries are
	// compacted away (see Schedule.Validate).
	var victims []int
	submit := func() Op {
		i := nextRun
		nextRun++
		victims = append(victims, i)
		run := fmt.Sprintf("r%d", i)
		bp := wf.GenerateBlueprint(run, cfgOf(i), rng)
		return Op{Kind: OpSubmit, Run: run, Blueprint: bp}
	}
	sch.Ops = append(sch.Ops, submit())

	var unalerted []wlog.InstanceID
	alertFor := func(insts []wlog.InstanceID) Op {
		op := Op{Kind: OpAlert}
		for _, inst := range insts {
			bad := []string{string(inst)}
			if len(victims) > 0 && rng.Float64() < p.FalseAccuseProb {
				// Falsely accuse a legitimate start task of an eligible
				// run; t0 executes unconditionally with visit 1, so the
				// instance is guaranteed to exist once the run has
				// started stepping.
				victim := victims[rng.Intn(len(victims))]
				bad = append(bad, string(wlog.FormatInstance(fmt.Sprintf("r%d", victim), "t0", 1)))
			}
			op.Batch = append(op.Batch, bad)
		}
		return op
	}

	for _, d := range deck {
		switch d.kind {
		case OpSubmit:
			sch.Ops = append(sch.Ops, submit())
		case OpForge:
			// Corrupt 1–2 pool keys of a random already-submitted run,
			// observing 0–2 keys first (the reads create the data
			// dependences damage assessment must chase).
			target := rng.Intn(nextRun)
			cfg := cfgOf(target)
			op := Op{
				Kind:   OpForge,
				Run:    fmt.Sprintf("atk%d", nextAtk),
				Writes: map[string]int64{},
			}
			nextAtk++
			for n := min(rng.Intn(3), cfg.Keys); len(op.Reads) < n; {
				k := string(cfg.PoolKey(rng.Intn(cfg.Keys)))
				if !containsStr(op.Reads, k) {
					op.Reads = append(op.Reads, k)
				}
			}
			for n := min(1+rng.Intn(2), cfg.Keys); len(op.Writes) < n; {
				k := string(cfg.PoolKey(rng.Intn(cfg.Keys)))
				op.Writes[k] = int64(1000 + rng.Intn(9000))
			}
			sch.Ops = append(sch.Ops, op)
			unalerted = append(unalerted, op.ForgedInstance())
			// Alert immediately with probability ½, else let forges pile
			// up for a later batch.
			if rng.Float64() < 0.5 {
				sch.Ops = append(sch.Ops, alertFor(unalerted))
				unalerted = nil
			}
		case OpCheckpoint:
			// A snapshot must capture repaired quiescence: flush the alert
			// backlog, drain repairs to completion, then checkpoint. Runs and
			// forges before this point become ineligible for later alerts —
			// their log entries are compacted away after a restart.
			if len(unalerted) > 0 {
				sch.Ops = append(sch.Ops, alertFor(unalerted))
				unalerted = nil
			}
			sch.Ops = append(sch.Ops, Op{Kind: OpDrain}, Op{Kind: OpCheckpoint})
			victims = nil
		case OpRestart:
			sch.Ops = append(sch.Ops, Op{Kind: OpRestart})
		}
		if rng.Float64() < p.DrainProb {
			// Flush the alert backlog first so the drain marks a clean
			// phase boundary: everything forged so far has been repaired
			// when the next phase's ops start.
			if len(unalerted) > 0 {
				sch.Ops = append(sch.Ops, alertFor(unalerted))
				unalerted = nil
			}
			sch.Ops = append(sch.Ops, Op{Kind: OpDrain})
		}
	}
	if len(unalerted) > 0 {
		sch.Ops = append(sch.Ops, alertFor(unalerted))
	}
	if err := sch.Validate(); err != nil {
		panic(fmt.Sprintf("fuzz: generated schedule invalid: %v", err))
	}
	return sch
}

func containsStr(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
