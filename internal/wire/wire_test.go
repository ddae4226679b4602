package wire

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func sampleMessages() []Message {
	return []Message{
		{Type: TypeData, From: 0, ID: MessageID{Source: 0, Seq: 1}, Payload: []byte("hello")},
		{Type: TypeSession, From: 0, TopSeq: 42},
		{Type: TypeLocalRequest, From: 7, ID: MessageID{Source: 0, Seq: 9}},
		{Type: TypeRemoteRequest, From: 12, ID: MessageID{Source: 0, Seq: 9}, Origin: 12},
		{Type: TypeRepair, From: 3, ID: MessageID{Source: 0, Seq: 9}, Origin: 12, LongTerm: true, Payload: []byte{1, 2, 3}},
		{Type: TypeSearch, From: 4, ID: MessageID{Source: 0, Seq: 9}, Origin: 55},
		{Type: TypeHave, From: 5, ID: MessageID{Source: 0, Seq: 9}},
		{Type: TypeHandoff, From: 6, ID: MessageID{Source: 0, Seq: 9}, LongTerm: true, Payload: []byte("xfer")},
		{Type: TypeHistory, From: 8, TopSeq: 100, Digest: []uint64{0xdeadbeef, 0, ^uint64(0)}},
		{Type: TypeAck, From: 9, TopSeq: 64},
		{Type: TypeNak, From: 10, ID: MessageID{Source: 0, Seq: 3}},
		{Type: TypeHeartbeat, From: 11, Counters: []uint64{1, 2, 3, 4}},
	}
}

func TestRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		m := m
		enc := m.Marshal()
		if len(enc) != m.EncodedSize() {
			t.Fatalf("%v: EncodedSize %d != len(Marshal) %d", m.Type, m.EncodedSize(), len(enc))
		}
		got, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("%v: Unmarshal: %v", m.Type, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
		}
	}
}

func TestUnmarshalRejectsTruncation(t *testing.T) {
	m := Message{Type: TypeRepair, From: 3, ID: MessageID{Source: 1, Seq: 2}, Payload: []byte("payload")}
	enc := m.Marshal()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Unmarshal(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
}

func TestUnmarshalRejectsTrailing(t *testing.T) {
	enc := append((&Message{Type: TypeHave, From: 1}).Marshal(), 0xff)
	if _, err := Unmarshal(enc); err != ErrTrailing {
		t.Fatalf("trailing byte: err = %v, want ErrTrailing", err)
	}
}

func TestUnmarshalRejectsBadType(t *testing.T) {
	enc := (&Message{Type: TypeHave, From: 1}).Marshal()
	enc[0] = 0
	if _, err := Unmarshal(enc); err == nil {
		t.Fatal("type 0 accepted")
	}
	enc[0] = byte(typeMax)
	if _, err := Unmarshal(enc); err == nil {
		t.Fatal("typeMax accepted")
	}
}

func TestUnmarshalRejectsHugeLengths(t *testing.T) {
	m := Message{Type: TypeData, Payload: []byte("x")}
	enc := m.Marshal()
	// Corrupt the payload length prefix (offset: 1+4+4+8+4+8+1 = 30).
	enc[30] = 0xff
	enc[31] = 0xff
	enc[32] = 0xff
	enc[33] = 0x7f
	if _, err := Unmarshal(enc); err == nil {
		t.Fatal("huge length prefix accepted")
	}
}

func TestNegativeNodeIDsRoundTrip(t *testing.T) {
	m := Message{Type: TypeHave, From: topology.NoNode, ID: MessageID{Source: topology.NoNode, Seq: 0}, Origin: topology.NoNode}
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.From != topology.NoNode || got.ID.Source != topology.NoNode || got.Origin != topology.NoNode {
		t.Fatalf("NoNode did not round trip: %+v", got)
	}
}

func TestUnmarshalArbitraryBytesNeverPanics(t *testing.T) {
	prop := func(b []byte) bool {
		_, _ = Unmarshal(b) // must not panic regardless of outcome
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	prop := func(from int32, src int32, seq uint64, origin int32, top uint64, lt bool, payload []byte, digest []uint64) bool {
		m := Message{
			Type:     TypeRepair,
			From:     topology.NodeID(from),
			ID:       MessageID{Source: topology.NodeID(src), Seq: seq},
			Origin:   topology.NodeID(origin),
			TopSeq:   top,
			LongTerm: lt,
			Payload:  payload,
			Digest:   digest,
		}
		got, err := Unmarshal(m.Marshal())
		if err != nil {
			return false
		}
		if len(payload) == 0 {
			m.Payload = nil
		}
		if len(digest) == 0 {
			m.Digest = nil
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeString(t *testing.T) {
	if TypeData.String() != "DATA" {
		t.Fatalf("TypeData = %q", TypeData.String())
	}
	if Type(200).String() != "Type(200)" {
		t.Fatalf("unknown type = %q", Type(200).String())
	}
}

func TestMessageIDString(t *testing.T) {
	for id, want := range map[MessageID]string{
		{Source: 3, Seq: 17}:                           "3:17",
		{Source: topology.NoNode, Seq: math.MaxUint64}: "-1:18446744073709551615",
	} {
		if got := id.String(); got != want || got != fmt.Sprintf("%d:%d", id.Source, id.Seq) {
			t.Fatalf("MessageID.String() = %q, want %q", got, want)
		}
	}
}

func TestMessageIDAppendTextDoesNotAllocate(t *testing.T) {
	id := MessageID{Source: 99999, Seq: 1 << 40}
	buf := make([]byte, 0, 32)
	if n := testing.AllocsPerRun(100, func() { buf = id.AppendText(buf[:0]) }); n != 0 {
		t.Fatalf("AppendText into a sized buffer: %v allocs, want 0", n)
	}
	if string(buf) != "99999:1099511627776" {
		t.Fatalf("AppendText = %q", buf)
	}
}

func TestMarshalDeterministic(t *testing.T) {
	m := Message{Type: TypeHistory, From: 2, TopSeq: 9, Digest: []uint64{5, 6}}
	if !bytes.Equal(m.Marshal(), m.Marshal()) {
		t.Fatal("Marshal is not deterministic")
	}
}

func BenchmarkMarshal(b *testing.B) {
	m := Message{Type: TypeRepair, From: 3, ID: MessageID{Source: 1, Seq: 2}, Payload: make([]byte, 1024)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Marshal()
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	m := Message{Type: TypeRepair, From: 3, ID: MessageID{Source: 1, Seq: 2}, Payload: make([]byte, 1024)}
	enc := m.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(enc); err != nil {
			b.Fatal(err)
		}
	}
}
