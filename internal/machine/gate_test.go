package machine

import (
	"testing"
	"time"

	"selfheal/internal/data"
)

// TestKeyGateNests: pauses count, a release wakes the waiters that looked
// before it, and a pause drains the steps in flight on its keys only.
func TestKeyGateNests(t *testing.T) {
	g := NewKeyGate()
	a, b := []data.Key{"a", "x"}, []data.Key{"b"}
	wake := g.Wait()
	g.Pause([]data.Key{"a"})
	g.Pause([]data.Key{"a"})
	g.PauseAll()
	if g.Enter(b) {
		t.Fatal("Enter admitted a step under PauseAll")
	}
	g.ReleaseAll()
	select {
	case <-wake:
	default:
		t.Fatal("the release did not close the channel taken before it")
	}
	if !g.Enter(b) {
		t.Fatal("Enter refused a clean footprint once PauseAll was released")
	}
	g.Release([]data.Key{"a"})
	if g.Enter(a) || !g.Paused(a) {
		t.Fatal("the first of two pauses of a opened it")
	}
	g.Release([]data.Key{"a"})
	if !g.Enter(a) {
		t.Fatal("a stayed paused after both releases")
	}

	paused := make(chan struct{})
	go func() {
		g.Pause([]data.Key{"x"})
		close(paused)
	}()
	select {
	case <-paused:
		t.Fatal("Pause of x returned with a step on x in flight")
	case <-time.After(20 * time.Millisecond):
	}
	g.Exit(a)
	<-paused
	g.Exit(b) // b was never paused: its step did not hold the pause up
}
