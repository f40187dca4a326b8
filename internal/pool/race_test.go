//go:build race

package pool

const raceEnabled = true
