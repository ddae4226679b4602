// Package exp is the experiment harness: it runs N independently-seeded
// trials of any experiment across a bounded goroutine worker pool and
// aggregates the per-trial metrics into mean / stddev / 95%-CI summaries.
//
// Trials parallelize perfectly because every simulation in this repository
// is a self-contained deterministic object: a trial builds its own
// simulator, network and rng streams from its seed and shares no state with
// any other trial. The harness therefore guarantees a stronger property
// than mere thread safety: the aggregate of a run is a pure function of
// (BaseSeed, Trials) and is byte-identical no matter how many workers
// execute it. Per-trial results are written into a slice slot owned by the
// trial index and reduced in index order, so float accumulation order —
// and with it every mean, stddev and CI — never depends on goroutine
// scheduling.
//
// Scenario matrices (region layout × loss × churn × policy) are declared
// with the Sweep type in sweep.go and run through the same pool.
package exp

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/stats"
)

// TrialFunc runs one trial. trial is the dense trial index in [0, Trials);
// seed is the trial's root random seed (derived via TrialSeed). It returns
// named scalar metrics; nil maps are allowed (the trial then contributes to
// no metric, which side-channel collectors use).
type TrialFunc func(trial int, seed uint64) (map[string]float64, error)

// Options configure a multi-trial run.
type Options struct {
	// Trials is the number of independently seeded repetitions (min 1).
	Trials int
	// Parallel is the CPU budget: it bounds the worker pool, and RunSweeps
	// gives its spare cores to trials as lanes. <= 0 means GOMAXPROCS.
	Parallel int
	// BaseSeed roots the whole run. Trial i runs with TrialSeed(BaseSeed, i).
	BaseSeed uint64
}

// normalized returns o with defaults applied.
func (o Options) normalized() Options {
	if o.Trials < 1 {
		o.Trials = 1
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	return o
}

// TrialSeed derives the root seed for one trial from the run's base seed.
// It is a splitmix64 finalizer over (base, trial), so consecutive trial
// indices map to well-separated seeds and the mapping never depends on how
// many trials run or in what order.
func TrialSeed(base uint64, trial int) uint64 {
	x := base ^ (uint64(trial)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// runJobs executes fn(0..n-1) on a pool of at most parallel goroutines and
// returns the error of the lowest-indexed failing job (so the reported
// failure is deterministic too). Jobs after a failure may be skipped.
func runJobs(parallel, n int, fn func(i int) error) error {
	if parallel > n {
		parallel = n
	}
	var (
		mu       sync.Mutex
		firstErr error
		errIdx   int
		next     int
		wg       sync.WaitGroup
	)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if firstErr != nil || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil || i < errIdx {
						firstErr, errIdx = err, i
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// RunTrials executes o.Trials seeded trials of fn across the worker pool
// and returns the per-trial metric maps in trial order.
func RunTrials(o Options, fn TrialFunc) ([]map[string]float64, error) {
	o = o.normalized()
	results := make([]map[string]float64, o.Trials)
	err := runJobs(o.Parallel, o.Trials, func(i int) error {
		m, err := fn(i, TrialSeed(o.BaseSeed, i))
		if err != nil {
			return fmt.Errorf("exp: trial %d (seed %#x): %w", i, TrialSeed(o.BaseSeed, i), err)
		}
		results[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// MetricSummary is one metric aggregated across trials. CI95 is the
// half-width of the 95% confidence interval for the mean (Student's t).
type MetricSummary struct {
	Name   string  `json:"name"`
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	CI95   float64 `json:"ci95"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Aggregate is the reduction of a multi-trial run: every metric any trial
// reported, summarized, sorted by name.
type Aggregate struct {
	Trials  int             `json:"trials"`
	Metrics []MetricSummary `json:"metrics"`
}

// Metric returns the summary for name, if present.
func (a Aggregate) Metric(name string) (MetricSummary, bool) {
	for _, m := range a.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return MetricSummary{}, false
}

// Summarize reduces samples (in the given order) to one MetricSummary.
// Every summary in a report — sweep cells and multi-trial ablation columns
// alike — goes through here, so the statistics conventions cannot drift.
func Summarize(name string, samples []float64) MetricSummary {
	var h stats.Histogram
	for _, v := range samples {
		h.Add(v)
	}
	return MetricSummary{
		Name:   name,
		N:      h.N(),
		Mean:   h.Mean(),
		Stddev: h.SampleStddev(),
		CI95:   h.CI95(),
		Min:    h.Min(),
		Max:    h.Max(),
	}
}

// AggregateTrials reduces per-trial metric maps. Samples are accumulated in
// trial order, so the result is independent of worker scheduling.
func AggregateTrials(trials []map[string]float64) Aggregate {
	names := map[string]bool{}
	for _, t := range trials {
		for k := range t {
			names[k] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for k := range names {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	agg := Aggregate{Trials: len(trials)}
	// Without metrics the slice stays nil, which encodes as null.
	if len(sorted) > 0 {
		agg.Metrics = make([]MetricSummary, 0, len(sorted))
	}
	for _, name := range sorted {
		samples := make([]float64, 0, len(trials))
		for _, t := range trials {
			if v, ok := t[name]; ok {
				samples = append(samples, v)
			}
		}
		agg.Metrics = append(agg.Metrics, Summarize(name, samples))
	}
	return agg
}
