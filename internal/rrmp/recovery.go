package rrmp

import (
	"time"

	"repro/internal/clock"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// recovery is one in-flight loss-recovery episode. The two phases run
// concurrently (§2.2): local recovery asks random region neighbors with
// RTT-based retries; remote recovery flips a λ/n coin per round and asks a
// random parent-region member.
type recovery struct {
	// ms is the record of the message being recovered.
	ms          *msgState
	detectedAt  time.Duration
	localTries  int
	remoteTries int
	localTimer  clock.Handle
	remoteTimer clock.Handle
	// localRetry / remoteRetry are the timers' callbacks, bound once when
	// the record is made.
	localRetry  func()
	remoteRetry func()
	// done is set when the episode leaves its message's record (repaired,
	// abandoned, or dropped by Leave/Crash) and goes back on the free list.
	done bool
	// localDead / remoteDead mark a phase that can make no further
	// progress (retry budget exhausted, or no peers to ask). When both
	// are set the episode is abandoned and counted unrecoverable.
	localDead  bool
	remoteDead bool
	// rerecovery marks an episode re-initiated by Member.Recover after a
	// crash outage; its completion feeds Metrics.ReRecoveryLatency.
	rerecovery bool
}

func (r *recovery) retryLocal()  { r.ms.m.localAttempt(r) }
func (r *recovery) retryRemote() { r.ms.m.remoteAttempt(r) }

// newRecovery puts a recovery episode detected now in ms, taking its
// record off the free list.
func (m *Member) newRecovery(ms *msgState, rerecovery bool) *recovery {
	rec := take(&m.region.recs)
	if rec == nil {
		rec = new(recovery)
		rec.localRetry, rec.remoteRetry = rec.retryLocal, rec.retryRemote
	}
	rec.ms, rec.detectedAt, rec.rerecovery, rec.done = ms, m.region.sched.Now(), rerecovery, false
	ms.recovery = rec
	return rec
}

// endRecovery stops rec's timers, takes it out of its message's record and
// puts it back on the free list; the caller releases the record.
func (m *Member) endRecovery(rec *recovery) {
	rec.localTimer.Stop()
	rec.remoteTimer.Stop()
	rec.ms.recovery = nil
	*rec = recovery{localRetry: rec.localRetry, remoteRetry: rec.remoteRetry, done: true}
	m.region.recs = append(m.region.recs, rec)
}

// noteTop advances loss detection for src up to sequence top: every
// unreceived sequence in (maxSeen, top] is a detected loss (§2.1: gaps in
// the sequence space, plus session messages for burst tails).
func (m *Member) noteTop(src topology.NodeID, top uint64) {
	st := m.source(src)
	if top <= st.maxSeen {
		return
	}
	for seq := st.maxSeen + 1; seq <= top; seq++ {
		if !st.Has(seq) {
			m.startRecovery(wire.MessageID{Source: src, Seq: seq}, false)
		}
	}
	st.maxSeen = top
}

// StartRecovery begins loss recovery for id as if the member had just
// detected the loss. It is exported for the experiment harness, which uses
// it to reproduce §4's "all other members simultaneously detect the loss".
// It is a no-op if the member is gone, the message was already received,
// or recovery is active.
func (m *Member) StartRecovery(id wire.MessageID) {
	if m.left || m.crashed {
		return
	}
	m.startRecovery(id, false)
}

// startRecovery starts recovery, optionally marking the episode as a
// post-crash re-recovery (Member.Recover sets rerecovery).
func (m *Member) startRecovery(id wire.MessageID, rerecovery bool) {
	if m.source(id.Source).Has(id.Seq) {
		return
	}
	ms := m.msg(id)
	if ms.recovery != nil {
		return
	}
	rec := m.newRecovery(ms, rerecovery)
	m.trace(trace.Event{Kind: trace.Detect, ID: id})
	m.localAttempt(rec)
	m.remoteAttempt(rec)
}

// localAttempt sends one local-recovery request to a uniformly random
// live region neighbor and arms the RTT retry timer (§2.2). With the
// failure detector on, suspected peers are skipped so requests stop
// landing on crashed members.
func (m *Member) localAttempt(rec *recovery) {
	if rec.done {
		return
	}
	if m.cfg.View.NumPeers() == 0 {
		// Single-member region: only remote recovery can help.
		rec.localDead = true
		m.checkAbandoned(rec)
		return
	}
	if rec.localTries >= m.params.MaxLocalTries {
		rec.localDead = true
		m.checkAbandoned(rec)
		return
	}
	rec.localTries++
	q, _ := m.randomPeer() // ok: the region has peers, checked above
	m.metrics.LocalReqSent.Inc()
	id := rec.ms.id
	m.trace(trace.Event{Kind: trace.LocalReq, ID: id, Peer: q, N: int32(rec.localTries)})
	m.cfg.Transport.Send(q, wire.Message{Type: wire.TypeLocalRequest, From: m.cfg.View.Self, ID: id})
	rec.localTimer.Arm(m.region.sched, m.params.IntraRTT+m.params.retryGrace(), rec.localRetry)
}

// remoteAttempt runs one remote-recovery round: with probability λ/n send a
// remote request to a random parent-region member; in all cases arm the
// retry timer (§2.2: "This timer is set by any receiver missing a message,
// regardless whether it actually sent out a request or not").
func (m *Member) remoteAttempt(rec *recovery) {
	if rec.done {
		return
	}
	parents := m.cfg.View.ParentMembers
	if len(parents) == 0 {
		// Root-region member: there is nobody above to ask.
		rec.remoteDead = true
		m.checkAbandoned(rec)
		return
	}
	if rec.remoteTries >= m.params.MaxRemoteTries {
		rec.remoteDead = true
		m.checkAbandoned(rec)
		return
	}
	rec.remoteTries++
	regionSize := m.cfg.View.NumPeers() + 1
	p := m.params.Lambda / float64(regionSize)
	if m.cfg.Rng.Bernoulli(p) {
		r := parents[m.cfg.Rng.Intn(len(parents))]
		m.metrics.RemoteReqSent.Inc()
		id := rec.ms.id
		m.trace(trace.Event{Kind: trace.RemoteReq, ID: id, Peer: r, N: int32(rec.remoteTries)})
		m.cfg.Transport.Send(r, wire.Message{Type: wire.TypeRemoteRequest, From: m.cfg.View.Self, ID: id, Origin: m.cfg.View.Self})
	}
	rec.remoteTimer.Arm(m.region.sched, m.params.ParentRTT+m.params.retryGrace(), rec.remoteRetry)
}

// checkAbandoned finishes an episode once neither phase can make further
// progress: the message is counted unrecoverable — the explicit signal
// replacing silent loss — and the episode is dropped. A late delivery
// (another member's repair multicast, a handoff) un-counts it again.
func (m *Member) checkAbandoned(rec *recovery) {
	if !rec.localDead || !rec.remoteDead || rec.done {
		return
	}
	ms := rec.ms
	m.endRecovery(rec)
	if !ms.unrecovered {
		ms.unrecovered = true
		m.metrics.Unrecoverable.Inc()
	}
	m.trace(trace.Event{Kind: trace.Unrecoverable, ID: ms.id})
}
