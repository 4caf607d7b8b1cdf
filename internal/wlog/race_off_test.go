//go:build !race

package wlog

const raceEnabled = false
