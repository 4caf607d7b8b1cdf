//go:build race

package wlog

// raceEnabled reports that the race detector is compiled in; it inflates
// every allocation, so the footprint guard skips itself.
const raceEnabled = true
