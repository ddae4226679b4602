package runner

import (
	"math"
	"math/bits"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// Totals is a deployment's members summed at one instant: the scenario
// kernel's member keys, each driver's protocol keys and repro.Group.Stats
// all read this one roll-up. Every sum is exact, of integer counts and
// nanoseconds, and each float is made once from its sum, so the totals do
// not depend on the order of the members. The RRMP-only counters stay
// zero in an RMTP deployment, and a node that keeps no buffer (an RMTP
// receiver) adds nothing to the buffer figures.
type Totals struct {
	Delivered          int64
	Duplicates         int64
	LocalRequests      int64
	RemoteRequests     int64
	Repairs            int64
	RegionalMulticasts int64
	Handoffs           int64
	// Searches counts §3.3 search-for-bufferer episodes members opened,
	// joins of another member's search included; SearchFailures counts
	// those abandoned after MaxSearchTries.
	Searches       int64
	SearchFailures int64
	// Suspects counts failure-detector suspicion events (the detector
	// runs only with Params.FDEnabled).
	Suspects int64
	// Unrecoverable counts losses whose recovery exhausted every retry
	// budget at members still in the group (their unrecovered sets) — the
	// explicit signal that a message is gone, never a silent omission.
	Unrecoverable   int64
	LongTermEntries int
	// BufferIntegral is total message-seconds of buffering paid so far.
	BufferIntegral float64
	// ByteIntegral is total payload-byte-seconds of buffering paid so
	// far — the byte currency the two-phase policy actually saves.
	ByteIntegral float64
	// PeakBuffered and PeakBufferedBytes are the most entries and the most
	// payload bytes any single member ever held.
	PeakBuffered      int
	PeakBufferedBytes int
	// PressureEvictions counts entries displaced to fit newer messages
	// under Params.ByteBudget; BudgetDenials counts stores refused
	// because one payload exceeded the whole budget. Both stay zero
	// without a budget.
	PressureEvictions int
	BudgetDenials     int
	// MeanRecoveryMs averages recovery latency over all repaired losses.
	MeanRecoveryMs float64
	// MeanReRecoveryMs averages the latency of recoveries re-initiated
	// after a crash outage (Member.Recover).
	MeanReRecoveryMs float64
	// MeanBufferingMs averages store→evict times.
	MeanBufferingMs float64

	// survivors counts the members that neither left nor crashed.
	survivors int
	// bufferNs and byteNs sum the buffers' occupancy integrals, in
	// message- and byte-nanoseconds.
	bufferNs, byteNs wide
	// recovery, reRecovery and buffering pool the member running means
	// behind the three means; a mean with no sample reads 0, and the kernel
	// then omits its key.
	recovery, reRecovery, buffering pool
}

// wide is an exact sum of non-negative int64s in two words, since a large
// deployment's byte integral passes 2⁶³ (a million members each holding
// ten 1 KiB copies for a second reach 10¹⁹ byte-nanoseconds).
type wide struct{ hi, lo uint64 }

func (w *wide) add(v int64) {
	var carry uint64
	w.lo, carry = bits.Add64(w.lo, uint64(v), 0)
	w.hi += carry
}

// float returns the sum rounded once to the nearest float64: the top 64
// bits convert with one rounding, and a sticky low bit stands for any
// nonzero bits below them, which only break a tie.
func (w wide) float() float64 {
	if w.hi == 0 {
		return float64(w.lo)
	}
	shift := bits.Len64(w.hi)
	top := w.hi<<(64-shift) | w.lo>>shift
	if w.lo<<(64-shift) != 0 {
		top |= 1
	}
	return math.Ldexp(float64(top), shift)
}

// pool merges running means into one: the members' exact nanosecond sums
// and their counts are added, and the pooled mean is divided once, as
// stats.RunningMean.Mean divides.
type pool struct {
	sum wide
	n   int
}

func (p *pool) add(h *stats.RunningMean) {
	p.sum.add(int64(h.Sum()))
	p.n += h.N()
}

func (p *pool) mean() float64 {
	if p.n == 0 {
		return 0
	}
	return p.sum.float() / (float64(p.n) * float64(time.Millisecond))
}

// add folds in one member's share of what both protocols keep: its
// counters, its recovery mean, the size of its unrecovered set and its
// buffer (nil where it keeps none). A member that left or crashed adds no
// unrecoverable losses.
func (t *Totals) add(now time.Duration, survivor bool, delivered, duplicates, repairs int64, unrecoverable int,
	recovery *stats.RunningMean, b *core.Buffer) {
	t.Delivered += delivered
	t.Duplicates += duplicates
	t.Repairs += repairs
	if survivor {
		t.survivors++
		t.Unrecoverable += int64(unrecoverable)
	}
	t.recovery.add(recovery)
	if b == nil {
		return
	}
	t.buffering.add(b.BufferingTime())
	t.LongTermEntries += b.LongTermCount()
	msgNs, byteNs := b.OccupancyIntegral(now)
	t.bufferNs.add(msgNs)
	t.byteNs.add(byteNs)
	t.PeakBuffered = max(t.PeakBuffered, b.PeakLen())
	t.PeakBufferedBytes = max(t.PeakBufferedBytes, b.PeakBytes())
	t.PressureEvictions += b.EvictedCount(core.EvictPressure)
	t.BudgetDenials += b.DeniedCount()
}

// finish makes the reported floats from the exact sums: the integrals in
// seconds and the pooled means in milliseconds.
func (t *Totals) finish() {
	t.BufferIntegral = t.bufferNs.float() / float64(time.Second)
	t.ByteIntegral = t.byteNs.float() / float64(time.Second)
	t.MeanRecoveryMs = t.recovery.mean()
	t.MeanReRecoveryMs = t.reRecovery.mean()
	t.MeanBufferingMs = t.buffering.mean()
}

// Totals sums the members at the engine's current instant.
func (c *Cluster) Totals() Totals {
	var t Totals
	now := c.Engine.Now()
	for _, m := range c.Members {
		mm := m.Metrics()
		unrecovered := 0
		for range m.Unrecovered {
			unrecovered++
		}
		t.add(now, !m.Left() && !m.Crashed(), mm.Delivered.Value(), mm.Duplicates.Value(),
			mm.RepairsSent.Value(), unrecovered, &mm.RecoveryLatency, m.Buffer())
		t.LocalRequests += mm.LocalReqSent.Value()
		t.RemoteRequests += mm.RemoteReqSent.Value()
		t.RegionalMulticasts += mm.RegionalMulticasts.Value()
		t.Searches += mm.SearchesStarted.Value()
		t.SearchFailures += mm.SearchFailures.Value()
		faults := m.Faults()
		t.Handoffs += faults.HandoffsSent.Value()
		t.Suspects += faults.Suspects.Value()
		t.reRecovery.add(&faults.ReRecoveryLatency)
	}
	t.finish()
	return t
}

// totals sums the nodes at the engine's current instant.
func (c *TreeCluster) totals() Totals {
	var t Totals
	now := c.Engine.Now()
	for _, n := range c.Nodes {
		mm := n.Metrics()
		t.add(now, !n.Left() && !n.Crashed(), mm.Delivered.Value(), mm.Duplicates.Value(),
			mm.RepairsSent.Value(), n.Unrecoverable(), &mm.RecoveryLatency, n.Buffer())
	}
	t.finish()
	return t
}
