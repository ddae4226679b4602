// Package node declares a Metrics struct with one field of each shape the
// constant-size rule sorts: a slice or a map, directly or inside a struct,
// an array or a pointed-to value, is found; scalars, fixed arrays of
// scalars, a constant-size struct and a self-referencing list are not.
package node

import "repro/internal/stats"

// link points at its own type, so the matcher must stop at a type it is
// already inside.
type link struct {
	next *link
	hops int
}

type Metrics struct {
	Delivered int64
	Recovery  stats.RunningMean
	Window    [8]float64
	Chain     link

	Samples stats.Histogram
	ByPeer  map[int]int64
	Ring    [4]stats.Histogram
	Last    *stats.Histogram
	Seen    []bool
}
