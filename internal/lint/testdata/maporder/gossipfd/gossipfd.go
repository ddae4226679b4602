// Package gossipfd is the maporder fixture for dynamic calls: the shape of
// the failure detector's pre-PR 17 sweep, which ranged over its entry map
// and reported each new suspicion through a func-typed Config field — so
// two suspicions of one sweep reached the tracer in Go map order.
package gossipfd

import "sort"

type entry struct {
	silence   int
	suspected bool
}

// Config carries the observer hook, as the real detector's does.
type Config struct {
	FailTimeout int
	OnSuspect   func(n int)
}

// Detector tracks peers in a map.
type Detector struct {
	cfg     Config
	entries map[int]*entry
}

// Sweep is the parent's sweep: the callback fires in map order.
func (d *Detector) Sweep() {
	for n, e := range d.entries {
		if e.silence > d.cfg.FailTimeout && !e.suspected {
			e.suspected = true
			if d.cfg.OnSuspect != nil {
				d.cfg.OnSuspect(n) // want "dynamic call \\(OnSuspect\\) inside range over map"
			}
		}
	}
}

// Visit calls a func-typed parameter per entry; ByName calls a func-typed
// local, and each func-typed map value. All observe the iteration order.
func (d *Detector) Visit(fn func(n int)) {
	for n := range d.entries {
		fn(n) // want "dynamic call \\(fn\\) inside range over map"
	}
}

func ByName(hooks map[string]func()) {
	log := func() {}
	for _, hook := range hooks {
		log()  // want "dynamic call \\(log\\) inside range over map"
		hook() // want "dynamic call \\(hook\\) inside range over map"
	}
}

// SweepSorted is the fix when the table must stay a map: collect, sort,
// then call in key order.
func (d *Detector) SweepSorted() {
	keys := make([]int, 0, len(d.entries))
	for n := range d.entries {
		keys = append(keys, n)
	}
	sort.Ints(keys)
	for _, n := range keys {
		d.cfg.OnSuspect(n)
	}
}

// Clean calls only statically known functions and methods, a closure
// declared inside the body (its own body is checked like any other), and
// a conversion.
func (d *Detector) Clean() int {
	total := 0
	for n, e := range d.entries {
		double := func(x int) int { return 2 * x }
		total += double(n) + abs(e.silence) + int(int64(n)) + d.weight(n)
	}
	return total
}

// Allowed says why order cannot matter.
func (d *Detector) Allowed(count func()) {
	for range d.entries {
		//lint:allow maporder -- count only increments a counter
		count()
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (d *Detector) weight(n int) int { return n % 3 }
