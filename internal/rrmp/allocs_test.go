package rrmp

import (
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Allocation guards for the member's packet path. Until PR 16 every trace
// call site built its detail string before asking whether anyone was
// listening, so an untraced delivery cost four allocations in fmt alone;
// these pin "a tracer that is off costs nothing" and say what a delivery
// still pays for.

// traceTable is one event per kind, with the fields its call site fills
// in, and the line the string-detail tracer printed for it (member 3 at
// t=0). QUERY-REPLY and IGNORE, which no rrmp-sim cell reaches (see
// cmd/rrmp-sim's trace_faults.golden), are also driven through their real
// call sites in TestTraceSitesGoldenCannotReach.
var traceTable = []struct {
	e    trace.Event
	line string
}{
	{trace.Event{Kind: trace.Suspect, Peer: 6}, "     0.000ms node=3    SUSPECT      peer=6"},
	{trace.Event{Kind: trace.Restore, Peer: 6}, "     0.000ms node=3    RESTORE      peer=6"},
	{trace.Event{Kind: trace.Ignore, Peer: 5, N: int32(wire.TypeAck)}, "     0.000ms node=3    IGNORE       type=ACK from=5"},
	{trace.Event{Kind: trace.HandoffRecv, ID: wire.MessageID{Seq: 16}}, "     0.000ms node=3    HANDOFF-RECV 0:16"},
	{trace.Event{Kind: trace.Deliver, ID: wire.MessageID{Seq: 1}, Peer: 0}, "     0.000ms node=3    DELIVER      id=0:1 from=0"},
	{trace.Event{Kind: trace.RegionMC, ID: wire.MessageID{Seq: 16}}, "     0.000ms node=3    REGION-MC    0:16"},
	{trace.Event{Kind: trace.HandoffSend, ID: wire.MessageID{Source: 2, Seq: 9}, Peer: 7}, "     0.000ms node=3    HANDOFF-SEND id=2:9 to=7"},
	{trace.Event{Kind: trace.Crash}, "     0.000ms node=3    CRASH        "},
	{trace.Event{Kind: trace.Recover}, "     0.000ms node=3    RECOVER      "},
	{trace.Event{Kind: trace.Detect, ID: wire.MessageID{Seq: 16}}, "     0.000ms node=3    DETECT       0:16"},
	{trace.Event{Kind: trace.LocalReq, ID: wire.MessageID{Seq: 16}, Peer: 4, N: 52}, "     0.000ms node=3    LOCAL-REQ    id=0:16 to=4 try=52"},
	{trace.Event{Kind: trace.RemoteReq, ID: wire.MessageID{Seq: 16}, Peer: 1, N: 2}, "     0.000ms node=3    REMOTE-REQ   id=0:16 to=1 try=2"},
	{trace.Event{Kind: trace.Unrecoverable, ID: wire.MessageID{Seq: 16}}, "     0.000ms node=3    UNRECOVERABLE 0:16"},
	{trace.Event{Kind: trace.SearchStart, ID: wire.MessageID{Seq: 16}, Origin: 12}, "     0.000ms node=3    SEARCH-START id=0:16 origin=12"},
	{trace.Event{Kind: trace.QueryReply, ID: wire.MessageID{Seq: 16}, Origin: 12, Peer: 5}, "     0.000ms node=3    QUERY-REPLY  id=0:16 origin=12 via=5"},
	{trace.Event{Kind: trace.SearchFail, ID: wire.MessageID{Seq: 16}}, "     0.000ms node=3    SEARCH-FAIL  0:16"},
	{trace.Event{Kind: trace.SearchFwd, ID: wire.MessageID{Seq: 16}, Peer: 4, N: 60}, "     0.000ms node=3    SEARCH-FWD   id=0:16 to=4 try=60"},
	{trace.Event{Kind: trace.SearchServe, ID: wire.MessageID{Seq: 16}, Origin: 12, Peer: 5}, "     0.000ms node=3    SEARCH-SERVE id=0:16 origin=12 via=5"},
	{trace.Event{Kind: trace.SearchEnd, ID: wire.MessageID{Seq: 3}, Peer: 8}, "     0.000ms node=3    SEARCH-END   id=0:3 via HAVE from=8"},
}

func TestUntracedTraceDoesNotAllocate(t *testing.T) {
	m := newCluster(t, singleRegion(t, 10), DefaultParams(), 1, nil).members[3]
	for _, tc := range traceTable {
		e := tc.e
		if n := testing.AllocsPerRun(100, func() { m.trace(e) }); n != 0 {
			t.Errorf("untraced %v: %v allocs, want 0", e.Kind, n)
		}
	}
}

func TestTracedLinesMatchStringDetailTracer(t *testing.T) {
	m := newCluster(t, singleRegion(t, 10), DefaultParams(), 1, nil).members[3]
	var sink trace.Memory
	m.cfg.Tracer = &sink
	for _, tc := range traceTable {
		m.trace(tc.e)
	}
	seen := make(map[trace.Kind]bool)
	for i, e := range sink.Events() {
		seen[e.Kind] = true
		if got := e.String(); got != traceTable[i].line {
			t.Errorf("%v line = %q, want %q", e.Kind, got, traceTable[i].line)
		}
	}
	for k := trace.Kind(1); k < trace.NumKinds; k++ {
		if !seen[k] {
			t.Errorf("traceTable has no %v event", k)
		}
	}
}

// TestTraceSitesGoldenCannotReach drives the two call sites no rrmp-sim
// flag reaches: a baseline-only PDU (IGNORE) and a holder answering the
// multicast bufferer query of §3.3's rejected design (QUERY-REPLY).
func TestTraceSitesGoldenCannotReach(t *testing.T) {
	params := DefaultParams()
	params.SearchMode = SearchMulticastQuery
	c := newCluster(t, singleRegion(t, 10), params, 1, nil)
	m := c.members[3]
	var sink trace.Memory
	m.cfg.Tracer = &sink

	m.Receive(5, wire.Message{Type: wire.TypeAck, From: 5})
	id := wire.MessageID{Source: 0, Seq: 1}
	m.Receive(0, wire.Message{Type: wire.TypeData, From: 0, ID: id, Payload: []byte("x")})
	m.Receive(5, wire.Message{Type: wire.TypeQuery, From: 5, ID: id, Origin: 9})
	// Stop short of the idle threshold so the copy is still held.
	c.sim.RunUntil(params.withDefaults().QueryBackoffMax + time.Millisecond)

	for kind, want := range map[trace.Kind]string{
		trace.Ignore:     "IGNORE       type=ACK from=5",
		trace.QueryReply: "QUERY-REPLY  id=0:1 origin=9 via=5",
	} {
		evs := sink.Filter(kind)
		if len(evs) != 1 {
			t.Fatalf("%d %v events, want 1 (trace: %v)", len(evs), kind, sink.Events())
		}
		if got := evs[0].String(); !strings.HasSuffix(got, "node=3    "+want) {
			t.Errorf("%v line = %q, want it to end %q", kind, got, want)
		}
	}
}

// warmMember returns member 3 of a 10-member region that has already
// received warm in-order DATA packets from the sender, so its per-source
// state, maps and buffer index are at their steady-state sizes, on a
// simulator whose event pool holds warm recycled events, as it does once
// a run is under way.
func warmMember(t *testing.T, warm uint64) (m *Member, data func(seq uint64) wire.Message) {
	t.Helper()
	c := newCluster(t, singleRegion(t, 10), DefaultParams(), 1, nil)
	m = c.members[3]
	payload := make([]byte, 256)
	data = func(seq uint64) wire.Message {
		return wire.Message{Type: wire.TypeData, From: 0, ID: wire.MessageID{Source: 0, Seq: seq}, Payload: payload}
	}
	for seq := uint64(1); seq <= warm; seq++ {
		m.Receive(0, data(seq))
		c.sim.Post(0, func() {})
	}
	c.sim.RunUntil(0) // fires the no-ops only; every warm copy is still held
	return m, data
}

func TestUntracedDuplicateDataDoesNotAllocate(t *testing.T) {
	m, data := warmMember(t, 64)
	dup := data(64)
	if n := testing.AllocsPerRun(100, func() { m.Receive(0, dup) }); n != 0 {
		t.Fatalf("duplicate DATA: %v allocs per Receive, want 0", n)
	}
}

// TestUntracedFreshDataAllocs pins what a first, in-order DATA packet
// still allocates with tracing off. Both are state the protocol keeps
// until the copy is discarded, not garbage: Buffer.Store's *core.Entry and
// that entry's fire closure. The idle timer is a clock.Handle inside the
// entry, so arming it allocates nothing. (The string-detail tracer added
// four of pure garbage: Sprintf's result, the boxed id, and
// MessageID.String's result and boxed sequence number; a heap-allocated
// timer handle per arm made a third.)
func TestUntracedFreshDataAllocs(t *testing.T) {
	const warm, runs = 1024, 200
	m, data := warmMember(t, warm)
	seq := uint64(warm)
	n := testing.AllocsPerRun(runs, func() {
		seq++
		m.Receive(0, data(seq))
	})
	if n != 2 {
		t.Fatalf("fresh in-order DATA: %v allocs per Receive, want 2 (core.Entry, its fire closure)", n)
	}
	if got := m.Metrics().Delivered.Value(); got != int64(seq) {
		t.Fatalf("delivered %d of %d packets: the guard did not measure deliveries", got, seq)
	}
}

// countTransport counts sends and drops them, so a guard measures the
// member's own allocations and not the simulated network's.
type countTransport struct{ sends int }

func (c *countTransport) Send(topology.NodeID, wire.Message) { c.sends++ }
func (c *countTransport) Broadcast(wire.Message)             {}

// TestPeerPickDoesNotAllocate pins the live-peer pick on the two paths
// that draw one per attempt. Before PR 17 a member with the failure
// detector on rebuilt the candidate list (one make, one Suspected map
// lookup per region member) on every local request, search hop and
// handoff; the pick is now the detector's own walk over its table. The
// retry timer allocates nothing either: it is a clock.Handle in the
// episode, re-armed with a callback bound once (a search's by newSearch,
// a recovery's on its first arm, which AllocsPerRun's warm-up run makes).
// The guard stops the previous retry timer first, as firing would, so the
// simulator's event comes from its pool.
func TestPeerPickDoesNotAllocate(t *testing.T) {
	params := DefaultParams()
	params.FDEnabled = true
	params.MaxLocalTries, params.MaxSearchTries = 1<<30, 1<<30
	c := newCluster(t, singleRegion(t, 10), params, 1, nil)
	m := c.members[3]
	// A crashed peer, suspected by the time the guard runs, takes the pick
	// off the everyone-is-live shortcut and onto the table walk.
	c.members[6].Crash()
	c.sim.RunUntil(time.Second)
	if !m.fd.Suspected(6) || m.fd.Suspected(5) {
		t.Fatal("setup: member 3 should suspect exactly the crashed member 6")
	}
	net := &countTransport{}
	m.cfg.Transport = net

	rec := &recovery{id: wire.MessageID{Source: 0, Seq: 99}}
	m.msg(rec.id).recovery = rec
	if n := testing.AllocsPerRun(200, func() { rec.localTimer.Stop(); m.localAttempt(rec) }); n != 0 {
		t.Errorf("local request attempt: %v allocs, want 0", n)
	}
	id := wire.MessageID{Source: 0, Seq: 98}
	s := m.newSearch(m.msg(id), id, 12)
	if n := testing.AllocsPerRun(200, func() { s.timer.Stop(); m.searchAttempt(s) }); n != 0 {
		t.Errorf("search hop: %v allocs, want 0", n)
	}
	if net.sends != 2*201 {
		t.Fatalf("%d sends, want %d: the guard did not measure attempts", net.sends, 2*201)
	}
}

// heartbeatTap forwards to the member's transport and notes every
// heartbeat table on the way. It keeps each table reachable, so an address
// seen twice is one table sent twice and never a freed block handed out
// again.
type heartbeatTap struct {
	Transport
	pdus   *int
	tables map[*uint64][]uint64
}

func (h heartbeatTap) Send(to topology.NodeID, msg wire.Message) {
	if msg.Type == wire.TypeHeartbeat {
		*h.pdus++
		h.tables[&msg.Counters[0]] = msg.Counters
	}
	h.Transport.Send(to, msg)
}

// TestHeartbeatTablesAreRecycled pins the one place a delivered heartbeat
// table goes back to the detector: in a lossless region most heartbeats
// must ride in a table that arrived earlier instead of a fresh snapshot.
// The snapshot was 70 % of the bytes the fault cells of the sweep
// allocated, and the collector's reaction to it was what made sweep600's
// peak RSS vary from run to run.
func TestHeartbeatTablesAreRecycled(t *testing.T) {
	params := DefaultParams()
	params.FDEnabled = true
	c := newCluster(t, singleRegion(t, 10), params, 1, nil)
	pdus, tables := 0, map[*uint64][]uint64{}
	for _, m := range c.members {
		m.cfg.Transport = heartbeatTap{m.cfg.Transport, &pdus, tables}
	}
	c.sim.RunUntil(10 * time.Second)
	if pdus < 1500 || len(tables)*4 > pdus {
		t.Errorf("%d heartbeats rode in %d distinct tables, want under a quarter of at least 1500", pdus, len(tables))
	}
	for n, m := range c.members {
		if len(m.fd.Live()) != 10 {
			t.Errorf("member %d sees %v live", n, m.fd.Live())
		}
	}
}

// TestNewMemberAllocs pins what constructing a member costs, with the
// failure detector off, in a ten-member region. Each member once made
// nine maps up front, seven of them keyed by MessageID (18 allocations
// here); the per-message state is now one table made on first use.
func TestNewMemberAllocs(t *testing.T) {
	view, err := singleRegion(t, 10).ViewOf(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		View:      view,
		Transport: &countTransport{},
		Sched:     sim.New(),
		Rng:       rng.New(1),
		Params:    DefaultParams(),
	}
	if n := testing.AllocsPerRun(100, func() { NewMember(cfg) }); n != 11 {
		t.Fatalf("NewMember: %v allocs, want 11", n)
	}
}

// TestMsgStateSize keeps a message's record at twelve words or less: a
// HAVE makes one at every region member that has none, to hold only the
// announced bufferer.
func TestMsgStateSize(t *testing.T) {
	if n := unsafe.Sizeof(msgState{}); n > 96 {
		t.Fatalf("msgState is %d bytes, want at most 96", n)
	}
}
