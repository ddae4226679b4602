package rrmp

import "repro/internal/stats"

// Metrics tallies one member's protocol activity. All counters are updated
// synchronously on the member's executor; read them after the simulation
// quiesces. Every field is constant-size: latencies are running means, not
// sample lists, so a member's metrics do not grow with the messages it sees
// (lint.TestMemberMetricsAreConstantSize).
type Metrics struct {
	// Delivered counts distinct data messages delivered to this member.
	Delivered stats.Counter
	// Duplicates counts re-deliveries of already received messages
	// (duplicate repairs, redundant regional multicasts).
	Duplicates stats.Counter

	// LocalReqSent / LocalReqRecv count local-recovery NAKs (§2.2).
	LocalReqSent stats.Counter
	LocalReqRecv stats.Counter
	// RemoteReqSent / RemoteReqRecv count remote-recovery NAKs (§2.2).
	RemoteReqSent stats.Counter
	RemoteReqRecv stats.Counter
	// RepairsSent counts retransmissions; the A3 ablation contrasts the
	// multicast query's replies with the random walk's single repair.
	RepairsSent stats.Counter

	// RegionalMulticasts counts repairs this member multicast into its
	// region after receiving them from a remote region.
	RegionalMulticasts stats.Counter

	// SearchesStarted counts search episodes this member opened (§3.3):
	// on a remote request for a message it discarded, and on joining
	// another member's search for a message it received. SearchFailures
	// counts searches abandoned after MaxSearchTries.
	SearchesStarted stats.Counter
	SearchFailures  stats.Counter

	// RecoveryLatency averages detect→recover times in milliseconds.
	RecoveryLatency stats.RunningMean
}

// FaultMetrics tallies what only churn and faults move at a member. Most
// members of most scenarios never touch them, so a member keeps them in
// its cold state, made on first use, and reports them by
// Member.Faults. Like Metrics, every field is constant-size.
type FaultMetrics struct {
	// HandoffsSent counts long-term buffer transfers on voluntary leave
	// (§3.2).
	HandoffsSent stats.Counter
	// Suspects counts failure-detector suspicions observed by this member
	// (FDEnabled only).
	Suspects stats.Counter
	// ReRecoveryLatency averages detect→recover times for recoveries
	// re-initiated by Member.Recover after a crash outage: the time to
	// close each gap the member rediscovered when it came back.
	ReRecoveryLatency stats.RunningMean
}
