package main

import (
	"time"

	"repro/internal/policy"
)

// policy layer: parsing a spec, which every RRMP trial does once; only
// sweep600's thousands of tiny trials can notice it.
func probePolicy(scale int, m map[string]float64) {
	specs := []string{"two-phase", "fixed", "adaptive", "adaptive:tmin=20ms,tmax=200ms"}
	n := 1000000 / scale
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := policy.Parse(specs[i%len(specs)]); err != nil {
			return
		}
	}
	m["policy.parse_ns"] = nsPerOp(t0, n)
}
