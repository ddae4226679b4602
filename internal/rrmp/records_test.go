package rrmp

import (
	"cmp"
	"encoding/binary"
	"maps"
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// windowSpan bounds the sequences FuzzMsgWindow names: far enough past a
// window of a few records to make it slide and grow, small enough that a
// window spanning all of them stays cheap.
const windowSpan = 4096

// windowSources are the sources FuzzMsgWindow names, so a member keeps
// windows for several and inserts each between the others.
var windowSources = [...]topology.NodeID{7, 2, 5}

// windowOp encodes one FuzzMsgWindow operation: kind 0 makes id's record,
// 1 releases it, 2 walks every record; source indexes windowSources.
func windowOp(kind, source int, seq uint64) []byte {
	return binary.LittleEndian.AppendUint16([]byte{byte(kind + 3*source)}, uint16(seq-1))
}

// windowOps concatenates one kind of operation over seqs from one source.
func windowOps(kind, source int, seqs ...uint64) []byte {
	var out []byte
	for _, seq := range seqs {
		out = append(out, windowOp(kind, source, seq)...)
	}
	return out
}

// newBareMember returns a member of a ten-member region with no cluster
// around it.
func newBareMember(t testing.TB) *Member {
	view, err := singleRegion(t, 10).ViewOf(3)
	if err != nil {
		t.Fatal(err)
	}
	return NewMember(Config{View: view, Rng: rng.New(1), Region: NewRegion(view, sim.New(), &countTransport{}, DefaultParams(), nil)})
}

// FuzzMsgWindow holds a member's record windows to a map over fuzzed
// orders of making and releasing records: in order, reversed, below the
// window's base, far past its end, and across several sources. After
// every operation the touched id's record is the map's and the windows
// hold exactly the map's records, each once; a walk op also checks that
// they come in (source, seq) order. The window and source table
// themselves are wire's, which FuzzSourceWindows holds to a map.
//
//	go test -fuzz=FuzzMsgWindow -fuzztime=20s ./internal/rrmp
func FuzzMsgWindow(f *testing.F) {
	in := seqRange(1, 64, 1)
	f.Add(append(windowOps(0, 0, in...), windowOps(1, 0, in...)...))                  // make all, release all
	f.Add(append(windowOps(0, 0, seqRange(64, 1, -1)...), windowOp(2, 0, 1)...))      // reversed: each below the base
	f.Add(append(windowOps(0, 1, 10, 11, 12, 4000, 3), windowOps(1, 1, 11, 4000)...)) // far past, then below
	var slide []byte
	for seq := uint64(1); seq <= 200; seq++ {
		slide = append(slide, windowOp(0, 0, seq+1)...)
		slide = append(slide, windowOp(1, 0, seq)...)
	}
	f.Add(slide) // two in flight, sliding
	// One record left in the middle of a grown window, then a put past
	// its end: the record slides to the front and its old slot must clear.
	f.Add(append(append(windowOps(0, 2, seqRange(1, 8, 1)...), windowOps(1, 2, 1, 2, 3, 4, 5, 6, 8)...), windowOp(0, 2, 9)...))
	var mixed []byte
	for seq := uint64(1); seq <= 30; seq++ {
		mixed = append(mixed, windowOp(0, int(seq%3), 100-2*seq)...)
		mixed = append(mixed, windowOp(int(seq%2), int(seq*7%3), 3*seq)...)
		mixed = append(mixed, windowOp(2, 0, 1)...)
	}
	f.Add(mixed)
	// Sources 2 and 5 arrive after 7 and sort before it: the table leaves
	// its inline slot, and 7's state moves with it.
	f.Add(slices.Concat(windowOps(0, 0, 1, 2, 3), windowOps(0, 1, 4, 5), windowOp(2, 0, 1),
		windowOps(0, 2, 9, 1), windowOps(1, 0, 2), windowOps(0, 0, 4), windowOps(1, 1, 4), windowOp(2, 0, 1)))
	f.Add(slices.Concat(windowOps(0, 0, 7), windowOps(0, 2, 3), windowOps(0, 1, 2), windowOps(1, 0, 7),
		windowOps(0, 0, 8, 6), windowOp(2, 0, 1), windowOps(1, 2, 3), windowOps(0, 1, 1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		m := newBareMember(t)
		oracle := map[wire.MessageID]*msgState{}
		for i := 0; i+2 < len(data) && i < 3*512; i += 3 {
			kind, source := int(data[i]%3), int(data[i]/3)%len(windowSources)
			id := wire.MessageID{Source: windowSources[source], Seq: 1 + uint64(binary.LittleEndian.Uint16(data[i+1:]))%windowSpan}
			switch kind {
			case 0:
				ms := m.msg(id)
				if want := oracle[id]; want != nil && ms != want {
					t.Fatalf("op %d: msg(%v) made a second record", i/3, id)
				}
				if ms.id != id || ms.m != m {
					t.Fatalf("op %d: msg(%v) returned the record of %v", i/3, id, ms.id)
				}
				ms.unrecovered = true // in flight until released
				oracle[id] = ms
			case 1:
				if ms := oracle[id]; ms != nil {
					ms.unrecovered = false
					m.release(ms)
					delete(oracle, id)
				}
			case 2:
				want := slices.SortedFunc(maps.Keys(oracle), func(a, b wire.MessageID) int {
					return cmp.Or(cmp.Compare(a.Source, b.Source), cmp.Compare(a.Seq, b.Seq))
				})
				var got []wire.MessageID
				for ms := range m.records {
					if oracle[ms.id] != ms {
						t.Fatalf("op %d: the walk yielded a record for %v the map does not hold", i/3, ms.id)
					}
					got = append(got, ms.id)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("op %d: the walk yielded %v, want %v", i/3, got, want)
				}
			}
			if got := m.record(id); got != oracle[id] {
				t.Fatalf("op %d (kind %d): record(%v) = %p, want %p", i/3, kind, id, got, oracle[id])
			}
			n := 0
			for ms := range m.records {
				if oracle[ms.id] != ms {
					t.Fatalf("op %d (kind %d): a window holds a record for %v the map does not", i/3, kind, ms.id)
				}
				n++
			}
			if n != len(oracle) {
				t.Fatalf("op %d (kind %d): the windows hold %d records, want %d", i/3, kind, n, len(oracle))
			}
		}
	})
}

// seqRange returns lo, lo+step, ... up to hi inclusive (step may be
// negative).
func seqRange(lo, hi uint64, step int) []uint64 {
	var out []uint64
	for seq := lo; ; seq = uint64(int(seq) + step) {
		out = append(out, seq)
		if seq == hi {
			return out
		}
	}
}

// TestRecordWindowBounded pins the window's size: 10 000 in-order
// recovery episodes, each opened before the previous one is repaired, keep
// at most two window slots, because a put past the end moves the records
// in flight to the start of the window instead of growing it.
func TestRecordWindowBounded(t *testing.T) {
	c := newCluster(t, chainRegions(t, 10, 10), DefaultParams(), 1, nil)
	m := c.members[c.topo.MemberAt(1, 3)]
	m.region.transport = &countTransport{}
	payload := make([]byte, 16)
	for seq := uint64(1); seq <= 10000; seq++ {
		m.StartRecovery(wire.MessageID{Source: 0, Seq: seq + 1})
		m.Receive(0, wire.Message{Type: wire.TypeData, From: 0, ID: wire.MessageID{Source: 0, Seq: seq}, Payload: payload})
		if n := len(m.sources.Find(0).recs.Slots()); n > 2 {
			t.Fatalf("after %d in-order episodes the window holds %d slots", seq, n)
		}
	}
	if !recovering(m, wire.MessageID{Source: 0, Seq: 10001}) || m.Metrics().RecoveryLatency.N() != 9999 {
		t.Fatalf("%d recoveries completed, want 9999 and the last still open: the test did not run episodes", m.Metrics().RecoveryLatency.N())
	}
}

// TestSlabMembersMatchNewMember runs one lossy scenario with three sources
// and a byte budget twice: once on members built one by one through
// NewMember, once on members made in place in one slice, as
// runner.NewCluster makes them. A slab member holds its buffer, index and
// first source inline and reads the rest through its region, which must
// change no protocol decision: every member's metrics, buffered entries
// and trace events must be equal, in the same order.
func TestSlabMembersMatchNewMember(t *testing.T) {
	params := DefaultParams()
	params.ByteBudget = 2048
	run := func(slab bool) (*cluster, *trace.Memory) {
		sink := &trace.Memory{}
		loss := &netsim.BernoulliLoss{P: 0.2, Rng: rng.New(17)}
		topo := chainRegions(t, 10, 10, 10)
		c := buildCluster(t, topo, params, 5, loss, sink, nil, slab)
		c.sender.StartSessions()
		senders := []*Sender{c.sender, NewSender(c.members[topo.MemberAt(1, 4)]), NewSender(c.members[topo.MemberAt(2, 7)])}
		for i := range 60 {
			s := senders[i%len(senders)]
			c.sim.At(time.Duration(i)*7*time.Millisecond, func() { s.Publish(make([]byte, 300+i)) })
		}
		c.sim.RunUntil(5 * time.Second)
		return c, sink
	}
	own, ownTrace := run(false)
	slab, slabTrace := run(true)
	var recoveries int64
	for _, n := range own.all {
		a, b := own.members[n], slab.members[n]
		if *a.Metrics() != *b.Metrics() {
			t.Errorf("member %d: metrics %+v built by NewMember, %+v in a slab", n, *a.Metrics(), *b.Metrics())
		}
		if x, y := entryIDs(a), entryIDs(b); !slices.Equal(x, y) {
			t.Errorf("member %d: buffers %v built by NewMember, %v in a slab", n, x, y)
		}
		recoveries += int64(a.Metrics().RecoveryLatency.N())
	}
	if !slices.Equal(ownTrace.Events(), slabTrace.Events()) {
		t.Errorf("the trace streams differ: %d events built by NewMember, %d in a slab", len(ownTrace.Events()), len(slabTrace.Events()))
	}
	sources := map[topology.NodeID]bool{}
	for _, e := range ownTrace.Filter(trace.Deliver) {
		sources[e.ID.Source] = true
	}
	if recoveries == 0 || len(sources) != 3 || len(ownTrace.Filter(trace.LocalReq)) == 0 {
		t.Fatalf("%d recoveries, deliveries from %d sources: the scenario did not exercise loss recovery from three sources", recoveries, len(sources))
	}
}

// entryIDs lists the ids m buffers, in id order.
func entryIDs(m *Member) []wire.MessageID {
	var ids []wire.MessageID
	for _, e := range m.Buffer().Entries() {
		ids = append(ids, e.ID)
	}
	return ids
}
