package main

import (
	"time"

	"repro/internal/exp"
)

// workload layer: materializing one multi-client timeline, which every
// workload-axis trial of sweep600 pays before its first event. The spec is
// the sweep's own bursty one (exp is the package that declares it).
func probeWorkload(scale int, m map[string]float64) {
	spec := exp.BurstyWorkload()
	n := 20000 / scale
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := spec.Timeline(uint64(i)); err != nil {
			return
		}
	}
	m["workload.timeline_ns"] = nsPerOp(t0, n)
}
