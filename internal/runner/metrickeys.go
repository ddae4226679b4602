package runner

// This file is the central metric-key registry: the single place a metric
// name may be spelled as a string. Every key the sweep machinery emits,
// reduces or prints is declared here as an MK constant, in a const block
// whose `//metrics:gate both|rrmp|rmtp` directive names the protocol the
// key belongs to. The metrickey analyzer (internal/lint) enforces both
// directions: raw metric-name literals anywhere else are rejected, and a
// file scoped with `//metrics:scope rrmp|rmtp` may only mention keys gated
// to that protocol (or to both) — so "RRMP-only keys never leak into rmtp
// cells" is a compile-gate, not a convention. An MK constant outside a
// gated block is itself a finding.
//
// The constants are untyped strings so existing map[string]float64
// emitters and exp.Summarize call sites take them unchanged; the committed
// reports (BENCH_sweep.json, the pinned goldens) are byte-identical
// through this refactor because only the spelling sites moved, never the
// values.

// Keys emitted by both protocol kernels.
//
//metrics:gate both
const (
	MKLeaves               = "leaves"
	MKPacketsSent          = "packets_sent"
	MKBytesSent            = "bytes_sent"
	MKEvents               = "events"
	MKDuplicates           = "duplicates"
	MKRepairs              = "repairs"
	MKBufferIntegralMsgSec = "buffer_integral_msgsec"
	MKPeakBuffered         = "peak_buffered"
	MKMeanRecoveryMs       = "mean_recovery_ms"
	MKMeanBufferingMs      = "mean_buffering_ms"
	MKCrashes              = "crashes"
	MKUnrecoverable        = "unrecoverable"
	MKPartitionDrops       = "partition_drops"
)

// Reach / delivery keys (both protocols, computed by reachMetrics).
//
//metrics:gate both
const (
	MKDeliveryRatio         = "delivery_ratio"
	MKMinReachFrac          = "min_reach_frac"
	MKSurvivorDeliveryRatio = "survivor_delivery_ratio"
	MKSurvivorMinReachFrac  = "survivor_min_reach_frac"
)

// Byte-currency keys: present only in cells that engage the payload or
// budget axes (workloadBytesEngaged) so pre-axis cells keep the exact key
// set the committed golden reports pin byte for byte.
//
//metrics:gate both
const (
	MKBufferIntegralByteSec = "buffer_integral_bytesec"
	MKPeakBufferedBytes     = "peak_buffered_bytes"
	MKPressureEvictions     = "pressure_evictions"
	MKBudgetDenials         = "budget_denials"
)

// Workload-axis keys: present only in cells with a multi-client workload.
//
//metrics:gate both
const (
	MKClients     = "clients"
	MKPublishes   = "publishes"
	MKLateJoiners = "late_joiners"
)

// RRMP-only keys (region-bufferer recovery, search, handoff, gossip FD).
//
//metrics:gate rrmp
const (
	MKLocalRequests      = "local_requests"
	MKRemoteRequests     = "remote_requests"
	MKRegionalMulticasts = "regional_multicasts"
	MKHandoffs           = "handoffs"
	MKSearches           = "searches"
	MKSearchFailures     = "search_failures"
	MKLongTermEntries    = "long_term_entries"
	MKSuspects           = "suspects"
	MKMeanReRecoveryMs   = "mean_rerecovery_ms"
)

// RMTP-only keys (NAK/ACK-window repair-server machinery).
//
//metrics:gate rmtp
const (
	MKNakSent    = "nak_sent"
	MKNakRecv    = "nak_recv"
	MKAckSent    = "ack_sent"
	MKAckRecv    = "ack_recv"
	MKAckTrim    = "ack_trim"
	MKNakGiveups = "nak_giveups"
)

// MKRecoveryMs is the one key no sweep cell emits: bench/ reports a
// trial's mean recovery latency under it.
//
//metrics:gate rrmp
const MKRecoveryMs = "recovery_ms"
