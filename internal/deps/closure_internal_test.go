package deps

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// randomChainGraph folds a synthetic log of n entries over k keys into a
// fresh IncrementalGraph: every entry reads one pseudo-random key (observing
// its last writer) and writes another, producing long, tangled writer chains.
func randomChainGraph(n, k int, rng *rand.Rand) *IncrementalGraph {
	ig := newIncremental(Frontier{})
	last := make([]wlog.InstanceID, k)
	for i := 0; i < n; i++ {
		e := &wlog.Entry{
			LSN:   i + 1,
			Run:   fmt.Sprintf("r%d", i%8),
			Task:  wf.TaskID(fmt.Sprintf("t%d", i)),
			Visit: 1,
		}
		rk := rng.Intn(k)
		obs := wlog.ReadObs{WriterPos: wlog.MissingPos}
		if last[rk] != "" {
			obs = wlog.ReadObs{Writer: string(last[rk]), WriterPos: float64(i)}
		}
		e.Reads = wlog.ReadsOf(map[data.Key]wlog.ReadObs{data.Key(fmt.Sprintf("k%d", rk)): obs})
		wk := rng.Intn(k)
		e.Writes = wlog.WritesOf(map[data.Key]data.Value{data.Key(fmt.Sprintf("k%d", wk)): data.Value(i)})
		ig.Append(e)
		last[wk] = e.ID()
	}
	return ig
}

// TestClosureParallelMatchesSerial forces the sharded BFS with several worker
// counts (the container may report GOMAXPROCS=1, which would otherwise keep
// the parallel path cold) and checks it against the serial DFS, at the full
// prefix and at mid-log prefixes.
func TestClosureParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ig := randomChainGraph(5000, 32, rng)
	n := len(ig.entries)
	epochs := []int{n, n / 2, n / 7}
	for trial := 0; trial < 25; trial++ {
		seed := map[wlog.InstanceID]bool{}
		for j := 0; j <= trial%3; j++ {
			seed[wlog.InstanceID(fmt.Sprintf("r%d/t%d#1", rng.Intn(8), rng.Intn(5000)))] = true
		}
		for _, epoch := range epochs {
			want := ig.closureSerial(seed, epoch)
			for _, workers := range []int{2, 4, 16} {
				got := ig.closureParallel(seed, epoch, workers)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d epoch %d workers %d: parallel closure %d members, serial %d",
						trial, epoch, workers, len(got), len(want))
				}
			}
		}
	}
}

// TestClosureParallelEmptySeed: the sharded BFS must terminate immediately on
// an empty seed.
func TestClosureParallelEmptySeed(t *testing.T) {
	ig := randomChainGraph(100, 4, rand.New(rand.NewSource(1)))
	got := ig.closureParallel(map[wlog.InstanceID]bool{}, len(ig.entries), 4)
	if len(got) != 0 {
		t.Fatalf("empty seed produced %d members", len(got))
	}
}
