package runner

// This file is the central metric-key registry: the single place a metric
// name may be spelled as a string. Every key the sweep machinery emits,
// reduces or prints is declared here as an MK constant and catalogued in
// metricKeyRegistry with its protocol and axis gating. The metrickey
// analyzer (internal/lint) enforces both directions: raw metric-name
// literals anywhere else are rejected, and a file scoped with
// `//metrics:scope rrmp|rmtp` may only mention keys gated to that
// protocol (or to both) — so "RRMP-only keys never leak into rmtp cells"
// (PR 5) is a compile-gate, not a convention.
//
// The constants are untyped strings so existing map[string]float64
// emitters and exp.Summarize call sites take them unchanged; the committed
// reports (BENCH_sweep.json, the pinned goldens) are byte-identical
// through this refactor because only the spelling sites moved, never the
// values.

// Keys emitted by both protocol kernels.
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
const (
	MKDeliveryRatio         = "delivery_ratio"
	MKMinReachFrac          = "min_reach_frac"
	MKSurvivorDeliveryRatio = "survivor_delivery_ratio"
	MKSurvivorMinReachFrac  = "survivor_min_reach_frac"
)

// Byte-currency keys: present only in cells that engage the payload or
// budget axes (workloadBytesEngaged) so pre-axis cells keep the exact key
// set the committed golden reports pin byte for byte.
const (
	MKBufferIntegralByteSec = "buffer_integral_bytesec"
	MKPeakBufferedBytes     = "peak_buffered_bytes"
	MKPressureEvictions     = "pressure_evictions"
	MKBudgetDenials         = "budget_denials"
)

// Workload-axis keys: present only in cells with a multi-client workload.
const (
	MKClients     = "clients"
	MKPublishes   = "publishes"
	MKLateJoiners = "late_joiners"
)

// RRMP-only keys (region-bufferer recovery, search, handoff, gossip FD).
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
const (
	MKNakSent    = "nak_sent"
	MKNakRecv    = "nak_recv"
	MKAckSent    = "ack_sent"
	MKAckRecv    = "ack_recv"
	MKAckTrim    = "ack_trim"
	MKNakGiveups = "nak_giveups"
)

// Ablation-only summary columns (multitrial.go reduces ablation rows under
// these names; they never appear in sweep cells).
const (
	MKBufferIntegral = "buffer_integral"
	MKPeakPerMember  = "peak_per_member"
	MKRecoveryMs     = "recovery_ms"
)

// MetricKeyInfo catalogues one registered key. Protocol is "rrmp", "rmtp"
// or "both"; Axis names the machinery that produces the key ("core",
// "reach", "bytes", "workload", "ablation") and documents when the key may
// be absent from a cell.
type MetricKeyInfo struct {
	Key      string
	Protocol string
	Axis     string
}

// metricKeyRegistry gates every MK constant. The metrickey analyzer reads
// this table statically: an MK constant without an entry is a finding, and
// protocol-scoped emitter files may only mention keys their gate allows.
var metricKeyRegistry = []MetricKeyInfo{
	{Key: MKLeaves, Protocol: "both", Axis: "core"},
	{Key: MKPacketsSent, Protocol: "both", Axis: "core"},
	{Key: MKBytesSent, Protocol: "both", Axis: "core"},
	{Key: MKEvents, Protocol: "both", Axis: "core"},
	{Key: MKDuplicates, Protocol: "both", Axis: "core"},
	{Key: MKRepairs, Protocol: "both", Axis: "core"},
	{Key: MKBufferIntegralMsgSec, Protocol: "both", Axis: "core"},
	{Key: MKPeakBuffered, Protocol: "both", Axis: "core"},
	{Key: MKMeanRecoveryMs, Protocol: "both", Axis: "core"},
	{Key: MKMeanBufferingMs, Protocol: "both", Axis: "core"},
	{Key: MKCrashes, Protocol: "both", Axis: "core"},
	{Key: MKUnrecoverable, Protocol: "both", Axis: "core"},
	{Key: MKPartitionDrops, Protocol: "both", Axis: "core"},

	{Key: MKDeliveryRatio, Protocol: "both", Axis: "reach"},
	{Key: MKMinReachFrac, Protocol: "both", Axis: "reach"},
	{Key: MKSurvivorDeliveryRatio, Protocol: "both", Axis: "reach"},
	{Key: MKSurvivorMinReachFrac, Protocol: "both", Axis: "reach"},

	{Key: MKBufferIntegralByteSec, Protocol: "both", Axis: "bytes"},
	{Key: MKPeakBufferedBytes, Protocol: "both", Axis: "bytes"},
	{Key: MKPressureEvictions, Protocol: "both", Axis: "bytes"},
	{Key: MKBudgetDenials, Protocol: "both", Axis: "bytes"},

	{Key: MKClients, Protocol: "both", Axis: "workload"},
	{Key: MKPublishes, Protocol: "both", Axis: "workload"},
	{Key: MKLateJoiners, Protocol: "both", Axis: "workload"},

	{Key: MKLocalRequests, Protocol: "rrmp", Axis: "core"},
	{Key: MKRemoteRequests, Protocol: "rrmp", Axis: "core"},
	{Key: MKRegionalMulticasts, Protocol: "rrmp", Axis: "core"},
	{Key: MKHandoffs, Protocol: "rrmp", Axis: "core"},
	{Key: MKSearches, Protocol: "rrmp", Axis: "core"},
	{Key: MKSearchFailures, Protocol: "rrmp", Axis: "core"},
	{Key: MKLongTermEntries, Protocol: "rrmp", Axis: "core"},
	{Key: MKSuspects, Protocol: "rrmp", Axis: "core"},
	{Key: MKMeanReRecoveryMs, Protocol: "rrmp", Axis: "core"},

	{Key: MKNakSent, Protocol: "rmtp", Axis: "core"},
	{Key: MKNakRecv, Protocol: "rmtp", Axis: "core"},
	{Key: MKAckSent, Protocol: "rmtp", Axis: "core"},
	{Key: MKAckRecv, Protocol: "rmtp", Axis: "core"},
	{Key: MKAckTrim, Protocol: "rmtp", Axis: "core"},
	{Key: MKNakGiveups, Protocol: "rmtp", Axis: "core"},

	{Key: MKBufferIntegral, Protocol: "rrmp", Axis: "ablation"},
	{Key: MKPeakPerMember, Protocol: "rrmp", Axis: "ablation"},
	{Key: MKRecoveryMs, Protocol: "rrmp", Axis: "ablation"},
}
