package rmtp

import (
	"repro/internal/clock"
	"repro/internal/wire"
)

// Sender publishes data through the tree protocol. It wraps the root
// repair server (the sender and root server coincide, as in RMTP) and
// multicasts through its Transport's Broadcast.
type Sender struct {
	n            *Node
	seq          uint64
	sessionTimer clock.Handle // fires (*sessionTick)(s)
}

// NewSender wraps the root server node. It panics if the node is not a
// repair server (the tree's root must buffer everything it sends).
func NewSender(n *Node) *Sender {
	if !n.isServer {
		panic("rmtp: sender must be a repair server")
	}
	return &Sender{n: n}
}

// Publish multicasts one message to the group and stores it in the root
// server's buffer.
func (s *Sender) Publish(payload []byte) wire.MessageID {
	s.seq++
	self := s.n.cfg.View.Self
	id := wire.MessageID{Source: self, Seq: s.seq}
	s.n.deliver(id, payload)
	s.n.cfg.Transport.Broadcast(self, wire.Message{Type: wire.TypeData, From: self, ID: id, Payload: payload})
	return id
}

// StartSessions begins periodic session messages. Idempotent.
func (s *Sender) StartSessions() {
	if s.sessionTimer.Armed() {
		return
	}
	s.sessionTimer.Arm(s.n.cfg.Sched, sessionInterval, (*sessionTick)(s))
}

// sessionTick is a Sender as its session timer's Firer: one session
// message, and the next tick armed.
type sessionTick Sender

func (t *sessionTick) Fire() {
	s := (*Sender)(t)
	self := s.n.cfg.View.Self
	s.n.cfg.Transport.Broadcast(self, wire.Message{Type: wire.TypeSession, From: self, TopSeq: s.seq})
	s.sessionTimer.Arm(s.n.cfg.Sched, sessionInterval, t)
}
