// Package trace provides structured event logging for protocol debugging
// and the example programs.
//
// An Event is a fixed-size value of typed fields — no string is built on
// the protocol's side — and the sink decides what to do with it: Memory
// retains a bounded ring for tests and post-mortem queries, Writer renders
// each event as one human-readable line. Tracing is off when the engine's
// Tracer is nil, and the engine checks that before it fills an Event in.
package trace

import (
	"io"
	"strconv"
	"time"

	"repro/internal/topology"
	"repro/internal/wire"
)

// Kind names a protocol occurrence.
type Kind uint8

// The traced occurrences, in the order rrmp.go, recovery.go and search.go
// emit them.
const (
	Suspect Kind = iota + 1
	Restore
	Ignore
	HandoffRecv
	Deliver
	RegionMC
	HandoffSend
	Crash
	Recover
	Detect
	LocalReq
	RemoteReq
	Unrecoverable
	SearchStart
	QueryReply
	SearchFail
	SearchFwd
	SearchServe
	SearchEnd
	NumKinds // one past the last kind
)

// kinds gives each Kind its name on a trace line and the layout of what
// follows it, which is also the list of Event fields the kind fills in:
// %i is ID, %p Peer, %o Origin, %n N, and %t N as a wire.Type. Any uint8
// indexes it, so a kind outside the enum prints blank, not a panic.
var kinds = [256]struct{ name, layout string }{
	Suspect:       {"SUSPECT", "peer=%p"},
	Restore:       {"RESTORE", "peer=%p"},
	Ignore:        {"IGNORE", "type=%t from=%p"},
	HandoffRecv:   {"HANDOFF-RECV", "%i"},
	Deliver:       {"DELIVER", "id=%i from=%p"},
	RegionMC:      {"REGION-MC", "%i"},
	HandoffSend:   {"HANDOFF-SEND", "id=%i to=%p"},
	Crash:         {"CRASH", ""},
	Recover:       {"RECOVER", ""},
	Detect:        {"DETECT", "%i"},
	LocalReq:      {"LOCAL-REQ", "id=%i to=%p try=%n"},
	RemoteReq:     {"REMOTE-REQ", "id=%i to=%p try=%n"},
	Unrecoverable: {"UNRECOVERABLE", "%i"},
	SearchStart:   {"SEARCH-START", "id=%i origin=%o"},
	QueryReply:    {"QUERY-REPLY", "id=%i origin=%o via=%p"},
	SearchFail:    {"SEARCH-FAIL", "%i"},
	SearchFwd:     {"SEARCH-FWD", "id=%i to=%p try=%n"},
	SearchServe:   {"SEARCH-SERVE", "id=%i origin=%o via=%p"},
	SearchEnd:     {"SEARCH-END", "id=%i via HAVE from=%p"},
}

// String returns the kind's name as trace lines print it.
func (k Kind) String() string { return kinds[k].name }

// Event is one traced protocol occurrence. Which of ID, Peer, Origin and N
// carry meaning depends on Kind (see kinds).
type Event struct {
	At     time.Duration
	Node   topology.NodeID
	Kind   Kind
	ID     wire.MessageID
	Peer   topology.NodeID
	Origin topology.NodeID
	N      int32
}

const spaces = "             " // the widest column (13) of padding

// AppendText appends the event's log line (no newline) to b, laid out as
// fmt's "%10.3fms node=%-4d %-12s " and then the kind's layout.
func (e Event) AppendText(b []byte) []byte {
	var num [24]byte
	ms := strconv.AppendFloat(num[:0], float64(e.At)/float64(time.Millisecond), 'f', 3, 64)
	b = append(b, spaces[:max(0, 10-len(ms))]...)
	b = append(append(b, ms...), "ms node="...)
	col := len(b)
	b = strconv.AppendInt(b, int64(e.Node), 10)
	b = append(b, spaces[:max(1, col+5-len(b))]...)
	col = len(b)
	b = append(b, e.Kind.String()...)
	b = append(b, spaces[:max(1, col+13-len(b))]...)

	layout := kinds[e.Kind].layout
	for i := 0; i < len(layout); i++ {
		if layout[i] != '%' {
			b = append(b, layout[i])
			continue
		}
		i++
		switch layout[i] {
		case 'i':
			b = e.ID.AppendText(b)
		case 'p':
			b = strconv.AppendInt(b, int64(e.Peer), 10)
		case 'o':
			b = strconv.AppendInt(b, int64(e.Origin), 10)
		case 'n':
			b = strconv.AppendInt(b, int64(e.N), 10)
		case 't':
			b = append(b, wire.Type(e.N).String()...)
		}
	}
	return b
}

// String formats the event as a single log line.
func (e Event) String() string { return string(e.AppendText(nil)) }

// Tracer receives protocol events; a nil Tracer means tracing is off.
// Implementations must be cheap: the simulator may emit millions of events.
type Tracer interface {
	// Emit records one event.
	Emit(e Event)
}

// Memory retains the most recent Cap events in memory. The zero value is
// unbounded; set Cap to bound retention. Memory is not safe for concurrent
// use.
type Memory struct {
	Cap    int
	events []Event
	start  int // ring start when bounded and full
	full   bool
}

var _ Tracer = (*Memory)(nil)

// Emit implements Tracer.
func (m *Memory) Emit(e Event) {
	if m.Cap <= 0 {
		m.events = append(m.events, e)
		return
	}
	if len(m.events) < m.Cap {
		m.events = append(m.events, e)
		return
	}
	m.events[m.start] = e
	m.start = (m.start + 1) % m.Cap
	m.full = true
}

// Events returns the retained events in chronological order.
func (m *Memory) Events() []Event {
	if !m.full {
		out := make([]Event, len(m.events))
		copy(out, m.events)
		return out
	}
	out := make([]Event, 0, len(m.events))
	out = append(out, m.events[m.start:]...)
	out = append(out, m.events[:m.start]...)
	return out
}

// Count returns the number of retained events.
func (m *Memory) Count() int { return len(m.events) }

// Filter returns retained events whose Kind equals kind.
func (m *Memory) Filter(kind Kind) []Event {
	var out []Event
	for _, e := range m.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Writer renders events as text lines on an io.Writer as they are emitted,
// one Write per event from a reused buffer. The first write error sticks:
// later events are dropped and Err reports it.
type Writer struct {
	W   io.Writer
	buf []byte
	err error
}

var _ Tracer = (*Writer)(nil)

// Emit implements Tracer.
func (w *Writer) Emit(e Event) {
	if w.err != nil {
		return
	}
	w.buf = append(e.AppendText(w.buf[:0]), '\n')
	_, w.err = w.W.Write(w.buf)
}

// Err returns the first error W returned, if any.
func (w *Writer) Err() error { return w.err }
