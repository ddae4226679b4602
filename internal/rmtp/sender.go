package rmtp

import (
	"repro/internal/clock"
	"repro/internal/wire"
)

// Sender publishes data through the tree protocol. It wraps the root
// repair server (the sender and root server coincide, as in RMTP).
type Sender struct {
	n            *Node
	broadcast    Broadcast
	seq          uint64
	sessionTimer clock.Handle
}

// NewSender wraps the root server node. It panics if the node is not a
// repair server (the tree's root must buffer everything it sends).
func NewSender(n *Node, b Broadcast) *Sender {
	if !n.isServer {
		panic("rmtp: sender must be a repair server")
	}
	if b == nil {
		panic("rmtp: Broadcast is required")
	}
	return &Sender{n: n, broadcast: b}
}

// Publish multicasts one message to the group and stores it in the root
// server's buffer.
func (s *Sender) Publish(payload []byte) wire.MessageID {
	s.seq++
	id := wire.MessageID{Source: s.n.cfg.Self, Seq: s.seq}
	s.n.deliver(id, payload)
	s.broadcast(wire.Message{Type: wire.TypeData, From: s.n.cfg.Self, ID: id, Payload: payload})
	return id
}

// StartSessions begins periodic session messages. Idempotent.
func (s *Sender) StartSessions() {
	if s.sessionTimer.Armed() {
		return
	}
	var tick func()
	tick = func() {
		s.broadcast(wire.Message{Type: wire.TypeSession, From: s.n.cfg.Self, TopSeq: s.seq})
		s.sessionTimer.Arm(s.n.cfg.Sched, sessionInterval, tick)
	}
	s.sessionTimer.Arm(s.n.cfg.Sched, sessionInterval, tick)
}
