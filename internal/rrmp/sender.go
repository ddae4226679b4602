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
	sessionTimer clock.Handle // fires (*sessionTick)(s)
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
	self := s.m.self()
	id := wire.MessageID{Source: self, Seq: s.seq}
	s.m.deliver(id, payload, self)
	s.m.region.transport.Broadcast(self, wire.Message{
		Type:    wire.TypeData,
		From:    self,
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
	s.sessionTimer.Arm(s.m.region.sched(), s.m.region.params.SessionInterval, (*sessionTick)(s))
}

// sessionTick is a Sender as its session timer's Firer: one session
// message, and the next tick armed.
type sessionTick Sender

func (t *sessionTick) Fire() {
	s := (*Sender)(t)
	s.m.region.transport.Broadcast(s.m.self(), wire.Message{
		Type:   wire.TypeSession,
		From:   s.m.self(),
		TopSeq: s.seq,
	})
	s.sessionTimer.Arm(s.m.region.sched(), s.m.region.params.SessionInterval, t)
}

// StopSessions cancels periodic session messages.
func (s *Sender) StopSessions() {
	s.sessionTimer.Stop()
}
