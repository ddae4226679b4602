//go:build !race

package netsim

// raceEnabled reports a race-detector build; see race_test.go.
const raceEnabled = false
