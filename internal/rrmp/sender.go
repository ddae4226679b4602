package rrmp

import (
	"repro/internal/clock"
	"repro/internal/wire"
)

// Sender adds publishing duties to a member. The paper's model has a single
// sender per group which "joins the multicast group before it starts
// sending messages, and consequently is also a receiver" (§2.1).
type Sender struct {
	m            *Member
	seq          uint64
	sessionTimer clock.Handle
}

// NewSender wraps a member with sender duties. The member's node id becomes
// the message source address.
func NewSender(m *Member) *Sender {
	return &Sender{m: m}
}

// Publish multicasts one data message to the whole group and delivers it
// locally (the sender buffers its own messages under the same policy as
// everyone else). It returns the assigned message id.
func (s *Sender) Publish(payload []byte) wire.MessageID {
	s.seq++
	id := wire.MessageID{Source: s.m.cfg.View.Self, Seq: s.seq}
	s.m.deliver(id, payload, s.m.cfg.View.Self)
	s.m.cfg.Transport.Broadcast(wire.Message{
		Type:    wire.TypeData,
		From:    s.m.cfg.View.Self,
		ID:      id,
		Payload: payload,
	})
	return id
}

// StartSessions begins periodic session messages announcing the top
// sequence number, letting receivers detect the loss of the last messages
// in a burst (§2.1). Safe to call once; restart after StopSessions is
// allowed.
func (s *Sender) StartSessions() {
	if s.sessionTimer.Armed() {
		return
	}
	var tick func()
	tick = func() {
		s.m.cfg.Transport.Broadcast(wire.Message{
			Type:   wire.TypeSession,
			From:   s.m.cfg.View.Self,
			TopSeq: s.seq,
		})
		s.sessionTimer.Arm(s.m.region.sched, s.m.params.SessionInterval, tick)
	}
	s.sessionTimer.Arm(s.m.region.sched, s.m.params.SessionInterval, tick)
}

// StopSessions cancels periodic session messages.
func (s *Sender) StopSessions() {
	s.sessionTimer.Stop()
}
