package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"selfheal/internal/durable"
	"selfheal/internal/engine"
	"selfheal/internal/wlog"
)

// horizonAtFullScan is the horizon computation before it followed what it
// drops: every run state and every resident log entry is read, the spans of
// every run are built from the log, and every run is classified. It is the
// oracle the O(dropped) horizonAt is checked against
// (TestHorizonAtEqualsFullScan).
func (s *Service) horizonAtFullScan(target int) (durable.Horizon, error) {
	// Run states before the log: a run registered after this reading
	// commits only above target, so every run with an entry at or below
	// it is classified here.
	x := s.exec
	x.mu.Lock()
	retired := make(map[string]durable.Tombstone)
	live := make(map[string]bool, len(x.runs))
	for id, rs := range x.runs {
		if rs.retired() {
			retired[id] = rs.tombstone()
		} else {
			live[id] = true
		}
	}
	x.mu.Unlock()
	s.mu.Lock()
	wasPre := s.preEpoch
	s.mu.Unlock()

	type span struct{ first, last int }
	spans := make(map[string]span)
	for _, e := range s.eng.Log().Entries() {
		sp, ok := spans[e.Run]
		if !ok {
			sp.first = e.LSN
		}
		sp.last = e.LSN
		spans[e.Run] = sp
	}

	// Walk the retired runs by descending last entry, moving E beneath
	// every one that straddles it; once a run ends at or below E, every
	// later one does. A run already pre-epoch straddles the previous
	// horizon wherever E sits, so it does not move E.
	var cuts []span
	for id := range retired {
		if sp, ok := spans[id]; ok && !wasPre[id] {
			cuts = append(cuts, sp)
		}
	}
	slices.SortFunc(cuts, func(a, b span) int { return b.last - a.last })
	epoch := max(target, s.eng.Log().Base())
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
			pre[id] = true
		} else if !done {
			forged = append(forged, id)
		}
	}
	x.mu.Lock()
	for _, id := range forged {
		if _, gone := x.tombs[id]; !gone {
			tombs[id] = durable.Tombstone{Status: durable.RunForged}
		}
	}
	x.mu.Unlock()
	g, err := s.graph.FrontierAt(epoch)
	if err != nil {
		return durable.Horizon{}, err
	}
	return durable.Horizon{Epoch: epoch, Graph: g, Tombs: tombs, PreEpoch: pre}, nil
}

// TestHorizonAtEqualsFullScan: horizonAt, which classifies only the runs the
// horizon may drop, returns exactly what the full scan returns — epoch,
// tombstones, pre-epoch set and graph frontier — at random targets and
// through chains of small successive advances that each forget, as an
// in-memory horizon trailing the head does tick by tick. The comparisons run
// inside the checkpoints of horizonEpisode episodes, with every shard paused
// and no repair running, so forged runs, retired straddlers, live runs held
// across the horizon, pre-epoch runs carried from one advance to the next
// and runs that failed before their first commit all meet both computations
// in the same state.
func TestHorizonAtEqualsFullScan(t *testing.T) {
	const seeds = 4
	compared, longest, straddled, forgedTombs, carried, bare := 0, 0, 0, 0, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		svc := startDurable(t, t.TempDir(), Config{Shards: 2}, durable.Options{NoSync: true})
		rng := rand.New(rand.NewSource(seed))
		var mismatch error
		compare := func(target int) (durable.Horizon, bool) {
			got, err := svc.horizonAt(target)
			want, werr := svc.horizonAtFullScan(target)
			switch {
			case err != nil || werr != nil:
				mismatch = fmt.Errorf("horizonAt(%d): %v; full scan: %v", target, err, werr)
			case !reflect.DeepEqual(got, want):
				mismatch = fmt.Errorf("horizonAt(%d) differs from the full scan's:\n got %+v\nwant %+v", target, got, want)
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
			return got, mismatch == nil
		}
		svc.captureHook = func(snap *durable.Snapshot) {
			base, head := svc.Log().Base(), snap.Epoch
			svc.exec.mu.Lock()
			bare += len(svc.exec.bare)
			svc.exec.mu.Unlock()
			for i := 0; i < 8 && mismatch == nil; i++ {
				compare(base + rng.Intn(head-base+1))
			}
			steps, stride := 0, max(1, (head-base)/40)
			for target := base; target < head && mismatch == nil; steps++ {
				target = min(head, target+1+rng.Intn(stride))
				svc.mu.Lock()
				wasPre := len(svc.preEpoch)
				svc.mu.Unlock()
				h, ok := compare(target)
				if !ok {
					return
				}
				if wasPre > 0 {
					carried++
				}
				if err := svc.forgetLive(h, true); err != nil {
					mismatch = err
				}
			}
			longest = max(longest, steps)
		}
		horizonEpisode(t, svc, seed, func(label string, _ []wlog.InstanceID) {
			if mismatch != nil {
				t.Fatalf("%s: %v", label, mismatch)
			}
			// A run that crashes at its first task retires with no
			// entry for the next checkpoint to bury.
			name := fmt.Sprintf("s%d-bare%d", seed, compared)
			svc.eng.AddAttack(engine.Attack{Run: name, Task: "t1", Crash: true})
			if err := svc.SubmitRunSpec(name, durableDoc(name, 2)); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		})
	}
	t.Logf("%d horizons compared; longest chain %d advances; %d cut beneath their target, %d forged-run tombstones, %d with pre-epoch runs carried, %d runs retired without an entry",
		compared, longest, straddled, forgedTombs, carried, bare)
	if longest < 30 || straddled == 0 || forgedTombs == 0 || carried == 0 || bare == 0 {
		t.Fatalf("longest chain %d, %d straddled cuts, %d forged-run tombstones, %d carried pre-epoch sets, %d runs without an entry: the episodes are near-vacuous",
			longest, straddled, forgedTombs, carried, bare)
	}
}
