// Package stats mirrors the accumulator shape of repro/internal/stats: a
// counter whose result-less pointer methods only tally.
package stats

type Counter struct{ n int64 }

func (c *Counter) Inc()         { c.n++ }
func (c *Counter) Add(d int64)  { c.n += d }
func (c *Counter) Value() int64 { return c.n }
