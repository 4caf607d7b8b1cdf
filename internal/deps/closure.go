// Damage-assessment closure: the →_f* reachability of Theorem 1 computed
// over the successor lists. Every instance the traversal discovers is a
// successor and so has an ordinal, and its list sits at that ordinal:
// visited sets are bitsets over ordinals and frontiers are integer slices;
// instance IDs appear only at the ends (the seed's lookup, the result).
// Small graphs use a serial DFS; past a size threshold the closure switches
// to a sharded worker-pool BFS — level-synchronous, with the visited set
// partitioned across shards so workers never contend on a shared word. Each
// round every shard expands its frontier into per-destination outboxes, then
// every shard merges the inboxes addressed to it; ownership is by the
// ordinal's low bits, so no locks are needed inside a round.
package deps

import (
	"math/bits"
	"runtime"
	"sync"

	"selfheal/internal/wlog"
)

// parallelClosureThreshold is the folded-entry count below which the serial
// closure wins (goroutine + channel overhead dominates tiny graphs).
const parallelClosureThreshold = 4096

// closureAt computes the →_f* closure of seed over the folded entries before
// ordinal n. Seed members are included in the result. Visited sets are
// indexed by an ordinal's offset from the generation's base.
func (gen *folded) closureAt(seed map[wlog.InstanceID]bool, n int) map[wlog.InstanceID]bool {
	gen.lock.RLock()
	defer gen.lock.RUnlock()
	workers := runtime.GOMAXPROCS(0)
	if workers > 1 && n-gen.base >= parallelClosureThreshold {
		return gen.closureParallel(seed, n, workers)
	}
	return gen.closureSerial(seed, n)
}

// bitset is a visited set over ordinals.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// add marks i and reports whether it was unmarked.
func (b bitset) add(i int) bool {
	w, m := i>>6, uint64(1)<<(i&63)
	if b[w]&m != 0 {
		return false
	}
	b[w] |= m
	return true
}

// closureSerial is the single-threaded DFS. Callers hold the graph's lock.
func (gen *folded) closureSerial(seed map[wlog.InstanceID]bool, n int) map[wlog.InstanceID]bool {
	out := make(map[wlog.InstanceID]bool, len(seed))
	visited := newBitset(n - gen.base)
	var stack []int
	push := func(ord int) {
		if visited.add(ord - gen.base) {
			stack = append(stack, ord)
		}
	}
	for id := range seed {
		out[id] = true
		gen.adjacency(id).each(relFlow, n, push)
	}
	for len(stack) > 0 {
		ord := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out[gen.entry(ord).ID()] = true
		gen.listAt(ord).each(relFlow, n, push)
	}
	return out
}

// closureParallel is the sharded worker-pool BFS. Callers hold the graph's
// lock (read), so the successor lists are immutable for the duration.
func (gen *folded) closureParallel(seed map[wlog.InstanceID]bool, n, workers int) map[wlog.InstanceID]bool {
	shards := 1
	for shards < workers && shards < 16 {
		shards <<= 1
	}
	mask, shift := shards-1, bits.TrailingZeros(uint(shards))

	// Shard s owns the ordinals whose offset from the base has low bits s;
	// its bitset is indexed by the offset's remaining high bits. Frontiers
	// and outboxes hold offsets.
	visited := make([]bitset, shards)
	for s := range visited {
		visited[s] = newBitset((n-gen.base)>>shift + 1)
	}
	// route sends l's successors to the outbox of the shard owning each.
	route := func(boxes [][]int, l adjList) {
		l.each(relFlow, n, func(ord int) {
			off := ord - gen.base
			boxes[off&mask] = append(boxes[off&mask], off)
		})
	}

	out := make(map[wlog.InstanceID]bool, len(seed))
	seedBoxes := make([][]int, shards)
	for id := range seed {
		out[id] = true
		route(seedBoxes, gen.adjacency(id))
	}
	outbox := [][][]int{seedBoxes}

	var wg sync.WaitGroup
	for {
		// Merge: each shard exclusively owns its visited partition, so
		// deduplication needs no locks.
		frontier := make([][]int, shards)
		for d := 0; d < shards; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				for _, boxes := range outbox {
					if boxes == nil {
						continue
					}
					for _, off := range boxes[d] {
						if visited[d].add(off >> shift) {
							frontier[d] = append(frontier[d], off)
						}
					}
				}
			}(d)
		}
		wg.Wait()

		// Expand: each shard walks its frontier's adjacency and routes
		// discovered successors to per-destination outboxes.
		active := false
		outbox = make([][][]int, shards)
		for s := 0; s < shards; s++ {
			for _, off := range frontier[s] {
				out[gen.entry(gen.base+off).ID()] = true
			}
			if len(frontier[s]) == 0 {
				continue
			}
			active = true
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				boxes := make([][]int, shards)
				for _, off := range frontier[s] {
					route(boxes, gen.listAt(gen.base+off))
				}
				outbox[s] = boxes
			}(s)
		}
		wg.Wait()
		if !active {
			return out
		}
	}
}
