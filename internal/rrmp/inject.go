package rrmp

import "repro/internal/wire"

// Harness hooks: the §4 experiments construct protocol states directly —
// "we simulate the outcome of an IP multicast by randomly selecting a
// subset of members to hold a message initially" — instead of replaying a
// lossy multicast. These methods exist for the experiment runner and tests;
// applications never need them.

// InjectDeliver delivers a message to this member as if it had arrived via
// the initial multicast: it is marked received and buffered under the
// member's policy. Gap detection below the sequence is NOT triggered,
// keeping injected states exactly as the experiment intends.
func (m *Member) InjectDeliver(id wire.MessageID, payload []byte) {
	if m.HasReceived(id) {
		return
	}
	m.InjectDiscarded(id)
	m.buf.Store(id, payload)
	m.metrics.Delivered.Inc()
	if h := m.hooks(); h != nil && h.OnDeliver != nil {
		h.OnDeliver(id, m.region.sched().Now())
	}
}

// InjectLongTerm delivers a message and pins it directly into the
// long-term phase, modeling §4's "the expected number of bufferers is C"
// search experiments where exactly B members hold an idle message.
func (m *Member) InjectLongTerm(id wire.MessageID, payload []byte) {
	m.InjectDiscarded(id)
	m.buf.StoreLongTerm(id, payload)
}

// InjectDiscarded marks a message as received-then-discarded without it
// ever entering the buffer: the §3.3 search experiments start from regions
// where the message "has become idle" at every non-bufferer.
func (m *Member) InjectDiscarded(id wire.MessageID) {
	st := m.sources.Add(id.Source)
	st.Mark(id.Seq)
	if id.Seq > st.maxSeen {
		st.maxSeen = id.Seq
	}
}
