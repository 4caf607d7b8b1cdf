package machine

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/durable"
	"selfheal/internal/engine"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// horizonAtFullScan is the horizon computation before it followed what it
// drops: every run state and every resident log entry is read, the spans of
// every run are built from the log, and every run is classified. It is the
// oracle the O(dropped) HorizonAt is checked against
// (TestHorizonAtEqualsFullScan).
func (m *Machine) horizonAtFullScan(target int) durable.Horizon {
	m.mu.Lock()
	retired := make(map[string]durable.Tombstone)
	live := make(map[string]bool, len(m.runs))
	for id, r := range m.runs {
		if r.status != Live {
			retired[id] = durable.Tombstone{Status: r.status.String(), Err: m.errs[id]}
		} else {
			live[id] = true
		}
	}
	wasPre := make(map[string]bool, len(m.pre))
	for id := range m.pre {
		wasPre[id] = true
	}
	m.mu.Unlock()

	type span struct{ first, last int }
	spans := make(map[string]span)
	firstStep := make(map[string]int)
	for _, e := range m.Log().Entries() {
		sp, ok := spans[e.Run]
		if !ok {
			sp.first = e.LSN
		}
		sp.last = e.LSN
		spans[e.Run] = sp
		if _, ok := firstStep[e.Run]; !ok && !e.Forged {
			firstStep[e.Run] = e.LSN
		}
	}

	var cuts []span
	for id := range retired {
		if sp, ok := spans[id]; ok && !wasPre[id] {
			cuts = append(cuts, sp)
		}
	}
	slices.SortFunc(cuts, func(a, b span) int { return b.last - a.last })
	epoch := max(target, m.Log().Base())
	for _, sp := range cuts {
		if sp.last <= epoch {
			break
		}
		if sp.first <= epoch {
			epoch = sp.first - 1
		}
	}

	tombs := make(map[string]durable.Tombstone)
	pre := make(map[string]bool)
	for id, tb := range retired {
		if sp, ok := spans[id]; !ok || sp.last <= epoch {
			tombs[id] = tb
		} else if wasPre[id] {
			pre[id] = true
		}
	}
	for id := range wasPre {
		if live[id] {
			pre[id] = true
		}
	}
	var forged []string
	for id, sp := range spans {
		if sp.first > epoch || id == "" {
			continue
		}
		if _, done := retired[id]; live[id] {
			if first, ok := firstStep[id]; ok && first <= epoch {
				pre[id] = true
			}
		} else if !done {
			forged = append(forged, id)
		}
	}
	m.mu.Lock()
	for _, id := range forged {
		if _, gone := m.tombs[id]; !gone {
			tombs[id] = durable.Tombstone{Status: durable.RunForged}
		}
	}
	m.mu.Unlock()
	return durable.Horizon{Epoch: epoch, Tombs: tombs, PreEpoch: pre}
}

// episode drives a seeded serial episode on a machine: runs registered from
// generated blueprints over a shared key pool, stepped in random order and
// retired when they end, some crashing at their first task (retired with no
// entry), and forged entries both under runs nobody registered and under
// registered runs' names. check runs at random points.
func episode(t *testing.T, seed int64, ops int, check func(m *Machine, committed []wlog.InstanceID)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := New(engine.New(data.NewStore(), wlog.New()), wf.NewInterner())
	eng := m.Engine()
	gen := wf.GenConfig{Tasks: 6, Keys: 5, MaxReads: 2, MaxWrites: 2, BranchProb: 0.3, Prefix: fmt.Sprintf("s%d_", seed)}
	var live []string
	var committed []wlog.InstanceID
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(40); {
		case r < 6:
			name := fmt.Sprintf("s%d-r%d", seed, op)
			spec, init, err := wfjson.BuildIn(m.Tab(), wfjson.FromBlueprint(wf.GenerateBlueprint(name, gen, rng)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Register(name, spec); err != nil {
				t.Fatal(err)
			}
			m.Init(init)
			if rng.Intn(6) == 0 {
				eng.AddAttack(engine.Attack{Run: name, Task: spec.Start, Crash: true})
			}
			live = append(live, name)
		case r < 34 && len(live) > 0:
			i := rng.Intn(len(live))
			id := live[i]
			run := m.Run(id)
			n := eng.Log().Len()
			done, err := eng.Step(&run.Run)
			var crash *engine.TaskFailure
			switch {
			case errors.As(err, &crash):
				m.Retire(id, Failed, err.Error())
			case err != nil:
				t.Fatal(err)
			case done:
				m.Retire(id, Done, "")
			}
			if eng.Log().Len() > n {
				committed = append(committed, eng.Log().Entries()[len(eng.Log().Entries())-1].ID())
			}
			if run.Done() {
				live = slices.Delete(live, i, i+1)
			}
		case r < 37:
			run := fmt.Sprintf("intruder%d", rng.Intn(3))
			if len(live) > 0 && rng.Intn(2) == 0 {
				run = live[rng.Intn(len(live))]
			}
			k := gen.PoolKey(rng.Intn(gen.Keys))
			inst, err := eng.InjectForged(run, wf.TaskID(fmt.Sprintf("f%d", op)), []data.Key{k}, map[data.Key]data.Value{k: data.Value(-1 - op)})
			if err != nil {
				t.Fatal(err)
			}
			committed = append(committed, inst)
		default:
			check(m, committed)
		}
	}
}

// TestHorizonAtEqualsFullScan: HorizonAt, which classifies only the runs the
// horizon may drop, returns exactly what the full scan returns — epoch,
// tombstones and pre-epoch set — at random targets and through chains of
// small successive advances that each forget, as an in-memory horizon
// trailing the head does tick by tick. Forged runs, retired straddlers, live
// runs held across the horizon, pre-epoch runs carried from one advance to
// the next and runs that failed before their first commit all meet both
// computations in the same state, forges in live runs' names among them;
// at the head, HorizonAt equals the horizon of the snapshot Capture takes
// there, which is what a restart forgets. After every advance the one 410
// rule holds for a sample of the instances ever committed: BelowHorizon
// exactly when the log no longer holds it — but for a forge in a live run's
// name, which the run's visit counts never record — and never for a visit a
// run not buried has not made.
func TestHorizonAtEqualsFullScan(t *testing.T) {
	const seeds = 4
	compared, longest, straddled, forgedTombs, carried, bare, below := 0, 0, 0, 0, 0, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(-seed))
		compare := func(m *Machine, target int) durable.Horizon {
			t.Helper()
			got, want := m.HorizonAt(target), m.horizonAtFullScan(target)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: HorizonAt(%d) differs from the full scan's:\n got %+v\nwant %+v", seed, target, got, want)
			}
			compared++
			for _, tb := range want.Tombs {
				if tb.Status == durable.RunForged {
					forgedTombs++
				}
			}
			if want.Epoch < target {
				straddled++
			}
			return got
		}
		episode(t, seed, 1200, func(m *Machine, committed []wlog.InstanceID) {
			base, head := m.Log().Base(), m.Log().Len()
			m.mu.Lock()
			bare += len(m.bare)
			m.mu.Unlock()
			// At the head, with the earlier tombstones, it is the horizon
			// of the snapshot Capture takes there: what a restart forgets.
			atHead := m.HorizonAt(head)
			maps.Copy(atHead.Tombs, m.Tombs())
			if snap := m.Capture().Horizon(); !reflect.DeepEqual(atHead, snap) {
				t.Fatalf("seed %d: HorizonAt(head %d) differs from the capture's horizon:\n got %+v\nwant %+v", seed, head, atHead, snap)
			}
			for i := 0; i < 4; i++ {
				compare(m, base+rng.Intn(head-base+1))
			}
			// Advance over half the resident window, so live runs and
			// retired straddlers stay behind for the next chain.
			steps, stride := 0, max(1, (head-base)/60)
			for target := base; target < (base+head)/2; steps++ {
				target = min(head, target+1+rng.Intn(stride))
				if len(m.PreEpoch()) > 0 {
					carried++
				}
				m.Forget(compare(m, target))
				for range min(64, len(committed)) {
					id := committed[rng.Intn(len(committed))]
					run, task, visit, _ := wlog.ParseInstance(id)
					_, inLog := m.Log().Get(id)
					_, gone := m.Buried(run)
					if sp := m.Spec(run); !inLog && !gone && sp != nil && sp.Task(task) == nil {
						// A forge in a live run's name: the run's visit
						// counts, and so its snapshot, never record it.
						if m.BelowHorizon(id) {
							t.Fatalf("seed %d: %s, a forge in live run %s's name, is below the horizon", seed, id, run)
						}
						continue
					}
					if m.BelowHorizon(id) == inLog {
						t.Fatalf("seed %d: %s is in the log %v and below the horizon %v", seed, id, inLog, !inLog)
					}
					if !inLog {
						below++
					}
					if gone {
						continue // every instance of a buried run is beneath the horizon
					}
					if never := wlog.FormatInstance(run, task, visit+1000); m.BelowHorizon(never) {
						t.Fatalf("seed %d: %s, a visit never made, is below the horizon", seed, never)
					}
				}
			}
			longest = max(longest, steps)
			m.Retain(true)
		})
	}
	t.Logf("%d horizons compared; longest chain %d advances; %d cut beneath their target, %d forged-run tombstones, %d with pre-epoch runs carried, %d runs retired without an entry, %d instances found below the horizon",
		compared, longest, straddled, forgedTombs, carried, bare, below)
	if longest < 20 || straddled == 0 || forgedTombs == 0 || carried == 0 || bare == 0 || below == 0 {
		t.Fatalf("longest chain %d, %d straddled cuts, %d forged-run tombstones, %d carried pre-epoch sets, %d runs without an entry, %d instances below: the episodes are near-vacuous",
			longest, straddled, forgedTombs, carried, bare, below)
	}
}
