//go:build race

package netsim

// raceEnabled reports a race-detector build, whose instrumentation makes
// a channel send's element escape to the heap: the sharded engine's lane
// hand-off then allocates, and a byte count of a window measures the
// detector.
const raceEnabled = true
