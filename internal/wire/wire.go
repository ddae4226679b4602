// Package wire defines the protocol data units exchanged by RRMP members
// and a compact binary codec for them.
//
// Inside the simulator, messages travel as Go values and the codec is never
// on the hot path. EncodedSize feeds the simulator's traffic accounting
// (netsim's byte counts), and Marshal/Unmarshal are the encoding it
// measures: the round-trip tests and fuzz targets check EncodedSize
// against the length Marshal actually produces, so the byte counts are
// what a real transport would send.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/topology"
)

// MessageID identifies a multicast data message: the paper's
// [source address, sequence number] identifier (§1, footnote 2).
type MessageID struct {
	Source topology.NodeID
	Seq    uint64
}

// AppendText appends "source:seq" to b.
func (id MessageID) AppendText(b []byte) []byte {
	b = strconv.AppendInt(b, int64(id.Source), 10)
	b = append(b, ':')
	return strconv.AppendUint(b, id.Seq, 10)
}

// String implements fmt.Stringer for log and trace output.
func (id MessageID) String() string {
	var buf [32]byte // an int32, ':' and a uint64 at their widest
	return string(id.AppendText(buf[:0]))
}

// Type enumerates the protocol PDUs.
type Type uint8

// Message types. The set covers RRMP proper (data, session, requests,
// repairs, search) plus the PDUs used by baselines (history gossip for
// stability detection, ack/nak for the tree-based protocol) and membership
// dynamics (handoff on leave).
const (
	TypeData          Type = iota + 1 // sender's multicast payload
	TypeSession                       // sender heartbeat carrying top sequence
	TypeLocalRequest                  // local recovery NAK to a region neighbor
	TypeRemoteRequest                 // remote recovery NAK to a parent-region member
	TypeRepair                        // retransmission of a data message
	TypeSearch                        // search-for-bufferer forwarded request
	TypeHave                          // "I have the message" search terminator
	TypeHandoff                       // long-term buffer transfer on leave
	TypeHistory                       // stability detection digest gossip
	TypeAck                           // tree-protocol window ack
	TypeNak                           // tree-protocol nak to repair server
	TypeHeartbeat                     // gossip failure-detector heartbeat
	TypeQuery                         // multicast bufferer query (§3.3's rejected design)

	typeMax // sentinel for validation
)

// TypeCount is the number of defined message types plus the zero sentinel;
// dense per-type tables (netsim's traffic counters) are sized by it.
const TypeCount = int(typeMax)

var typeNames = map[Type]string{
	TypeData:          "DATA",
	TypeSession:       "SESSION",
	TypeLocalRequest:  "REQ",
	TypeRemoteRequest: "RREQ",
	TypeRepair:        "REPAIR",
	TypeSearch:        "SEARCH",
	TypeHave:          "HAVE",
	TypeHandoff:       "HANDOFF",
	TypeHistory:       "HISTORY",
	TypeAck:           "ACK",
	TypeNak:           "NAK",
	TypeHeartbeat:     "HB",
	TypeQuery:         "QUERY",
}

// String implements fmt.Stringer.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Valid reports whether t is a defined message type.
func (t Type) Valid() bool { return t >= TypeData && t < typeMax }

// Message is the single PDU shape shared by all types. Fields not relevant
// to a type are left at their zero values; the codec still round-trips them.
type Message struct {
	// Type discriminates the PDU.
	Type Type
	// From is the immediate transmitter (not necessarily the data source).
	From topology.NodeID
	// ID names the data message this PDU concerns. For TypeData and
	// TypeRepair it identifies the payload; for requests and search PDUs it
	// identifies the wanted message.
	ID MessageID
	// Origin is the node on whose behalf this PDU travels: for TypeSearch
	// it is the remote requester awaiting the repair; for TypeRepair sent
	// in answer to a search it is the searcher that located the bufferer.
	Origin topology.NodeID
	// TopSeq is the highest sequence number the sender has multicast
	// (TypeSession), acked (TypeAck), or observed (TypeHistory).
	TopSeq uint64
	// LongTerm marks a TypeHandoff entry as a long-term buffer transfer
	// and a TypeRepair as coming from a long-term bufferer (metrics only).
	LongTerm bool
	// Payload is the application data (TypeData, TypeRepair, TypeHandoff).
	Payload []byte
	// Digest is a received-set bitmap for TypeHistory: bit i of
	// Digest[i/64] is set iff message Seq base+i has been received.
	Digest []uint64
	// Counters carries gossip heartbeat counters for TypeHeartbeat,
	// indexed by the destination's view ordering.
	Counters []uint64
}

const headerSize = 1 + 4 + 4 + 8 + 4 + 8 + 1 + 4 + 4 + 4 // fixed fields + 3 length prefixes

// EncodedSize returns the exact number of bytes Marshal would produce.
// The simulator charges this size to its traffic counters.
func (m *Message) EncodedSize() int {
	return headerSize + len(m.Payload) + 8*len(m.Digest) + 8*len(m.Counters)
}

// Marshal encodes m into a fresh byte slice.
func (m *Message) Marshal() []byte {
	buf := make([]byte, 0, m.EncodedSize())
	buf = append(buf, byte(m.Type))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.From))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.ID.Source))
	buf = binary.LittleEndian.AppendUint64(buf, m.ID.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Origin))
	buf = binary.LittleEndian.AppendUint64(buf, m.TopSeq)
	if m.LongTerm {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Payload)))
	buf = append(buf, m.Payload...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Digest)))
	for _, w := range m.Digest {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Counters)))
	for _, c := range m.Counters {
		buf = binary.LittleEndian.AppendUint64(buf, c)
	}
	return buf
}

// Unmarshal decode errors.
var (
	ErrShortMessage = errors.New("wire: message truncated")
	ErrBadType      = errors.New("wire: unknown message type")
	ErrTrailing     = errors.New("wire: trailing bytes after message")
	// ErrBadFlag rejects a boolean field encoded as anything but 0 or 1,
	// keeping the codec canonical: every accepted input re-encodes to
	// itself byte for byte (a property the decoder fuzz target enforces).
	ErrBadFlag = errors.New("wire: non-canonical boolean flag")
)

// Unmarshal decodes a message previously produced by Marshal. It rejects
// truncated input, unknown types, non-canonical booleans, and trailing
// garbage.
func Unmarshal(b []byte) (Message, error) {
	var m Message
	r := reader{buf: b}
	t, err := r.byte()
	if err != nil {
		return m, err
	}
	m.Type = Type(t)
	if !m.Type.Valid() {
		return m, fmt.Errorf("%w: %d", ErrBadType, t)
	}
	var u32 uint32
	if u32, err = r.uint32(); err != nil {
		return m, err
	}
	m.From = topology.NodeID(int32(u32))
	if u32, err = r.uint32(); err != nil {
		return m, err
	}
	m.ID.Source = topology.NodeID(int32(u32))
	if m.ID.Seq, err = r.uint64(); err != nil {
		return m, err
	}
	if u32, err = r.uint32(); err != nil {
		return m, err
	}
	m.Origin = topology.NodeID(int32(u32))
	if m.TopSeq, err = r.uint64(); err != nil {
		return m, err
	}
	lt, err := r.byte()
	if err != nil {
		return m, err
	}
	if lt > 1 {
		return m, fmt.Errorf("%w: %d", ErrBadFlag, lt)
	}
	m.LongTerm = lt != 0
	if m.Payload, err = r.bytes(); err != nil {
		return m, err
	}
	if m.Digest, err = r.words(); err != nil {
		return m, err
	}
	if m.Counters, err = r.words(); err != nil {
		return m, err
	}
	if len(r.buf) != r.off {
		return m, ErrTrailing
	}
	return m, nil
}

// reader is a bounds-checked cursor over an encoded message.
type reader struct {
	buf []byte
	off int
}

func (r *reader) need(n int) error {
	if len(r.buf)-r.off < n {
		return ErrShortMessage
	}
	return nil
}

func (r *reader) byte() (byte, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *reader) uint32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) uint64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if err := r.need(int(n)); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += int(n)
	return out, nil
}

func (r *reader) words() ([]uint64, error) {
	n, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if err := r.need(int(n) * 8); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(r.buf[r.off:])
		r.off += 8
	}
	return out, nil
}
