package machine

import (
	"slices"
	"sync"

	"selfheal/internal/data"
)

// KeyGate is the §IV quiesce of every runtime: a repair pauses the store
// keys its damage closure holds, and a normal step runs only while none of
// its keys is paused, so work on clean keys goes on through the repair
// (§III.D strategy 3). A shard worker steps a run only inside Enter of the
// run's footprint; the cluster's stamper refuses to stamp an entry whose
// task touches a paused key (Paused). Pauses nest: Pause and PauseAll count,
// and a key opens again only once every pause holding it is released.
type KeyGate struct {
	mu   sync.Mutex
	cond *sync.Cond // a step in flight exited
	// paused counts the pauses holding each key; all counts PauseAll.
	paused map[data.Key]int
	all    int
	// held lists the footprints of the steps in flight (Enter without its
	// Exit): at most one per shard worker, so a pause scans it.
	held [][]data.Key
	// wake is closed at the next release; nil until Wait asks for it.
	wake chan struct{}
}

// NewKeyGate returns a gate with no key paused.
func NewKeyGate() *KeyGate {
	g := &KeyGate{paused: make(map[data.Key]int)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Pause holds keys: from now on Enter refuses every footprint touching one,
// and Pause returns once no step in flight holds a paused key.
func (g *KeyGate) Pause(keys []data.Key) { g.pause(keys, 0) }

// PauseAll holds every key, and returns once no step is in flight.
func (g *KeyGate) PauseAll() { g.pause(nil, 1) }

func (g *KeyGate) pause(keys []data.Key, all int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, k := range keys {
		g.paused[k]++
	}
	g.all += all
	for slices.ContainsFunc(g.held, g.pausedLocked) {
		g.cond.Wait()
	}
}

// Release drops one Pause of keys.
func (g *KeyGate) Release(keys []data.Key) { g.release(keys, 0) }

// ReleaseAll drops one PauseAll.
func (g *KeyGate) ReleaseAll() { g.release(nil, 1) }

func (g *KeyGate) release(keys []data.Key, all int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, k := range keys {
		if g.paused[k]--; g.paused[k] <= 0 {
			delete(g.paused, k)
		}
	}
	g.all -= all
	if g.wake != nil {
		close(g.wake)
		g.wake = nil
	}
}

// Wait returns a channel that closes at the next release. Take it before
// looking at the gate: a release after the look then closes it, so a waiter
// that found its keys paused cannot miss the release.
func (g *KeyGate) Wait() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.wake == nil {
		g.wake = make(chan struct{})
	}
	return g.wake
}

// Paused reports whether any of keys is paused.
func (g *KeyGate) Paused(keys []data.Key) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.pausedLocked(keys)
}

func (g *KeyGate) pausedLocked(keys []data.Key) bool {
	if g.all > 0 {
		return true
	}
	for _, k := range keys {
		if g.paused[k] > 0 {
			return true
		}
	}
	return false
}

// Enter starts a step on keys, or refuses it (false) while one of them is
// paused. An entered step ends with Exit of the same slice.
func (g *KeyGate) Enter(keys []data.Key) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pausedLocked(keys) {
		return false
	}
	g.held = append(g.held, keys)
	return true
}

// Exit ends a step Enter admitted on keys. It drops one holder of the same
// slice; two holders of one slice hold the same keys, so either will do.
func (g *KeyGate) Exit(keys []data.Key) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, h := range g.held {
		if len(h) == len(keys) && (len(h) == 0 || &h[0] == &keys[0]) {
			g.held = slices.Delete(g.held, i, i+1)
			break
		}
	}
	g.cond.Broadcast()
}
