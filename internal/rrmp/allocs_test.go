package rrmp

import (
	"runtime"
	"runtime/debug"
	"slices"
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
	traceMember(m, &sink)
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
	traceMember(m, &sink)

	m.Receive(5, wire.Message{Type: wire.TypeAck, From: 5})
	id := wire.MessageID{Source: 0, Seq: 1}
	m.Receive(0, wire.Message{Type: wire.TypeData, From: 0, ID: id, Payload: []byte("x")})
	m.Receive(5, wire.Message{Type: wire.TypeQuery, From: 5, ID: id, Origin: 9})
	// Stop short of the idle threshold so the copy is still held.
	c.sim.RunUntil(params.withDefaults().queryBackoffMax() + time.Millisecond)

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
// a run is under way. It also returns that simulator.
func warmMember(t *testing.T, warm uint64) (m *Member, data func(seq uint64) wire.Message, s *sim.Sim) {
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
	return m, data, c.sim
}

func TestUntracedDuplicateDataDoesNotAllocate(t *testing.T) {
	m, data, _ := warmMember(t, 64)
	dup := data(64)
	if n := testing.AllocsPerRun(100, func() { m.Receive(0, dup) }); n != 0 {
		t.Fatalf("duplicate DATA: %v allocs per Receive, want 0", n)
	}
}

// TestUntracedFreshDataAllocs pins that a first, in-order DATA packet
// allocates nothing with tracing off once the member's buffer is cycling.
// The warm copies the election did not keep are discarded at the idle
// threshold, and the buffer recycles their entries, so the fresh copies
// reuse them. The idle timer is a clock.Handle inside the entry, which is
// the timer's Firer, so arming it allocates nothing. (Each store once allocated its *core.Entry and fire
// closure, which became garbage at eviction; the string-detail tracer
// added four more: Sprintf's result, the boxed id, and MessageID.String's
// result and boxed sequence number; a heap-allocated timer handle per arm
// made a third.)
func TestUntracedFreshDataAllocs(t *testing.T) {
	const warm, runs = 1024, 200
	m, data, s := warmMember(t, warm)
	s.RunUntil(time.Second) // past the idle threshold: the discarded copies' entries wait for reuse
	if held := len(m.Buffer().Entries()); held == warm || held < runs {
		t.Fatalf("setup: %d of %d warm copies held after the idle threshold", held, warm)
	}
	seq := uint64(warm)
	n := testing.AllocsPerRun(runs, func() {
		seq++
		m.Receive(0, data(seq))
	})
	if n != 0 {
		t.Fatalf("fresh in-order DATA: %v allocs per Receive, want 0", n)
	}
	if got := m.Metrics().Delivered.Value(); got != int64(seq) {
		t.Fatalf("delivered %d of %d packets: the guard did not measure deliveries", got, seq)
	}
}

// TestLatencySamplesDoNotAllocate pins that a member's latency metrics are
// constant-size: over thousands of recoveries and store→evict cycles on a
// warm member, the deliveries that complete the recoveries and the
// evictions that follow allocate no bytes. It sums runtime.MemStats bytes
// over every cycle, because AllocsPerRun's integer average rounds away a
// slice that doubles now and then: TestUntracedFreshDataAllocs read 0
// while every sample was still appended to a list. Each recovery is opened
// outside the measured window, since the episode itself is allocated.
// MemStats also counts what the runtime allocates on other threads (a new
// OS thread, a GC worker), so the collector is off and the guard takes the
// median of three runs of cycles: such noise lands in one run, while a
// structure that grows with the run (a sample list, a received bitset
// that keeps its words) allocates in at least two of them.
func TestLatencySamplesDoNotAllocate(t *testing.T) {
	const warm, cycles, runs = 1024, 4096, 3
	params := DefaultParams()
	// No long-term copies: every copy is evicted at the idle threshold, so
	// the buffer holds a constant number of entries and recycles them.
	params.C = 0
	c := newCluster(t, singleRegion(t, 10), params, 1, nil)
	m, s := c.members[3], c.sim
	m.region.transport = &countTransport{}
	payload := make([]byte, 256)
	seq := uint64(0)
	// cycle opens a recovery for the next message, then runs a millisecond
	// on and delivers it; it returns the bytes the second half allocated.
	var before, after runtime.MemStats
	cycle := func() uint64 {
		seq++
		id := wire.MessageID{Source: 0, Seq: seq}
		m.StartRecovery(id)
		runtime.ReadMemStats(&before)
		s.RunUntil(s.Now() + time.Millisecond)
		m.Receive(0, wire.Message{Type: wire.TypeData, From: 0, ID: id, Payload: payload})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for range warm {
		cycle()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	mm, bt := m.Metrics(), m.Buffer().BufferingTime()
	var perRun [runs]uint64
	for run := range runs {
		recovered, buffered := mm.RecoveryLatency.N(), bt.N()
		var bytes uint64
		for range cycles {
			bytes += cycle()
		}
		if got := mm.RecoveryLatency.N() - recovered; got != cycles {
			t.Fatalf("%d recoveries completed in %d cycles: the guard did not measure them", got, cycles)
		}
		if got := bt.N() - buffered; got < cycles*9/10 {
			t.Fatalf("%d evictions in %d cycles: the guard did not measure store→evict cycles", got, cycles)
		}
		perRun[run] = bytes
	}
	slices.Sort(perRun[:])
	if median := perRun[runs/2]; median != 0 {
		t.Fatalf("runs of %d cycles allocated %v B (median %.2f B/cycle), want 0", cycles, perRun, float64(median)/cycles)
	}
}

// TestEpisodesDoNotAllocate pins the episode idiom (records.go): once a
// region's free list holds records, a whole §2.2 recovery episode (detect,
// local and remote attempts and their retries, repair by delivery) and a
// whole §3.3 search episode (a remote request for a discarded message,
// its hops, the give-up) allocate nothing. Each takes its message record
// and episode off the list, arms retries that fire the episode record
// itself, and returns both to the list when it ends. (Each
// episode once made its record, its episode and one closure per retry
// callback, and a search an origins slice too.)
func TestEpisodesDoNotAllocate(t *testing.T) {
	const warm, runs = 64, 100
	params := DefaultParams()
	// Every copy is evicted at the idle threshold, and a few are held at
	// once, so the buffer cycles its entries (it keeps no spares while
	// empty).
	params.C, params.IdleThreshold = 0, time.Second
	params.MaxSearchTries = 4
	c := newCluster(t, chainRegions(t, 10, 10), params, 1, nil)
	m, s := c.members[c.topo.MemberAt(1, 3)], c.sim
	net := &countTransport{}
	m.region.transport = net
	payload := make([]byte, 256)
	seq := uint64(0)

	recoveryEpisode := func() {
		seq++
		id := wire.MessageID{Source: 0, Seq: seq}
		m.StartRecovery(id)
		s.RunUntil(s.Now() + 250*time.Millisecond) // local retries, two remote rounds
		m.Receive(0, wire.Message{Type: wire.TypeData, From: 0, ID: id, Payload: payload})
	}
	searchEpisode := func() {
		seq++
		id := wire.MessageID{Source: 0, Seq: seq}
		m.InjectDiscarded(id)
		m.Receive(1, wire.Message{Type: wire.TypeRemoteRequest, From: 1, ID: id, Origin: 1})
		s.RunUntil(s.Now() + 100*time.Millisecond) // every hop, then the give-up
	}
	for _, ep := range []struct {
		name string
		run  func()
		done func() int64
	}{
		{"recovery", recoveryEpisode, func() int64 { return int64(m.Metrics().RecoveryLatency.N()) }},
		{"search", searchEpisode, m.Metrics().SearchFailures.Value},
	} {
		for range warm {
			ep.run()
		}
		done, sends := ep.done(), net.sends
		if n := testing.AllocsPerRun(runs, ep.run); n != 0 {
			t.Errorf("%s episode: %v allocs, want 0", ep.name, n)
		}
		if got := ep.done() - done; got != runs+1 {
			t.Fatalf("%d %s episodes ended in %d runs: the guard did not measure them", got, ep.name, runs+1)
		}
		if net.sends-sends < 4*(runs+1) {
			t.Fatalf("%d sends in %d %s episodes: the guard did not measure attempts", net.sends-sends, runs+1, ep.name)
		}
	}
	if n := m.Metrics().RemoteReqSent.Value(); n == 0 {
		t.Fatal("no remote request in any recovery episode")
	}
	for ms := range m.records {
		t.Fatalf("record %v outlived its episode", ms.id)
	}
}

// countTransport counts sends and drops them, so a guard measures the
// members' own allocations and not the simulated network's. A multicast
// counts one send per listed target.
type countTransport struct{ sends int }

func (c *countTransport) Send(_, _ topology.NodeID, _ wire.Message) { c.sends++ }
func (c *countTransport) Multicast(_ topology.NodeID, targets []topology.NodeID, _ wire.Message) {
	c.sends += len(targets)
}
func (c *countTransport) Broadcast(topology.NodeID, wire.Message) {}

// TestPeerPickDoesNotAllocate pins the live-peer pick on the two paths
// that draw one per attempt. Before PR 17 a member with the failure
// detector on rebuilt the candidate list (one make, one Suspected map
// lookup per region member) on every local request, search hop and
// handoff; the pick is now the detector's own walk over its table. The
// retry timer allocates nothing either: it is a clock.Handle in the
// episode, re-armed with the episode as its Firer. The guard stops the
// previous retry timer first, as firing would, so the
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
	if !m.detector().Suspected(6) || m.detector().Suspected(5) {
		t.Fatal("setup: member 3 should suspect exactly the crashed member 6")
	}
	net := &countTransport{}
	m.region.transport = net

	rec := m.newRecovery(m.msg(wire.MessageID{Source: 0, Seq: 99}), false)
	if n := testing.AllocsPerRun(200, func() { rec.localTimer.Stop(); m.localAttempt(rec) }); n != 0 {
		t.Errorf("local request attempt: %v allocs, want 0", n)
	}
	s := m.newSearch(m.msg(wire.MessageID{Source: 0, Seq: 98}), 12)
	if n := testing.AllocsPerRun(200, func() { s.timer.Stop(); m.searchAttempt(s) }); n != 0 {
		t.Errorf("search hop: %v allocs, want 0", n)
	}
	if net.sends != 2*201 {
		t.Fatalf("%d sends, want %d: the guard did not measure attempts", net.sends, 2*201)
	}
}

// heartbeatTap forwards to the region's transport and notes every
// heartbeat table on the way. It keeps each table reachable, so an address
// seen twice is one table sent twice and never a freed block handed out
// again.
type heartbeatTap struct {
	Transport
	pdus   *int
	tables map[*uint64][]uint64
}

func (h heartbeatTap) Send(from, to topology.NodeID, msg wire.Message) {
	h.note(msg)
	h.Transport.Send(from, to, msg)
}

func (h heartbeatTap) Multicast(from topology.NodeID, targets []topology.NodeID, msg wire.Message) {
	h.note(msg)
	h.Transport.Multicast(from, targets, msg)
}

func (h heartbeatTap) note(msg wire.Message) {
	if msg.Type == wire.TypeHeartbeat {
		*h.pdus++
		h.tables[&msg.Counters[0]] = msg.Counters
	}
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
	region := c.members[0].region
	region.transport = heartbeatTap{region.transport, &pdus, tables}
	c.sim.RunUntil(10 * time.Second)
	if pdus < 1500 || len(tables)*4 > pdus {
		t.Errorf("%d heartbeats rode in %d distinct tables, want under a quarter of at least 1500", pdus, len(tables))
	}
	for n, m := range c.members {
		for peer := range c.members {
			if m.detector().Suspected(peer) {
				t.Errorf("member %d suspects %d", n, peer)
			}
		}
	}
}

// TestNewMemberAllocs pins what constructing a member costs, with the
// failure detector off, in a ten-member region, and what its first
// message adds. Each member once made nine maps up front, seven of them
// keyed by MessageID (18 allocations here); then its per-message state
// became one table made on first use and the buffer's eviction counts an
// array (10); then its per-source tables became sorted slices made on the
// first message (6), and the Params and two-phase policy moved to the
// region (5: the Member, its Buffer, the index header, the buffer's rng
// split and the eviction closure). Now a member holds its buffer, index,
// buffer rng and first source inline and reports evictions as itself, so
// on a shared Region it is one allocation, and runner.NewCluster, which
// makes its members in one slice, pays none per member. A new Region and
// its first member make 3 (the Region, the Member, and the two-phase
// policy the region's first member builds). The first DATA from a source
// makes the buffer's entry, which is its own timer's Firer, and the index
// window's array (2); an in-order mark keeps no reception bitset word, and
// no table of sources or of index slots is made: both start in the member.
// Nor is the member's cold state (hooks, detector, churn and fault
// metrics): a member with no hooks and no detector makes it only when it
// hands a copy off on leave or closes a gap it re-detected after a crash.
func TestNewMemberAllocs(t *testing.T) {
	view, err := singleRegion(t, 10).ViewOf(3)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	transport := &countTransport{}
	cfg := Config{View: view, Rng: rng.New(1)}
	if n := testing.AllocsPerRun(100, func() {
		cfg := cfg
		cfg.Region = NewRegion(view, s, transport, DefaultParams(), nil)
		NewMember(cfg)
	}); n != 3 {
		t.Fatalf("NewRegion and NewMember: %v allocs, want 3", n)
	}
	cfg.Region = NewRegion(view, s, transport, DefaultParams(), nil)
	if n := testing.AllocsPerRun(100, func() { NewMember(cfg) }); n != 1 {
		t.Fatalf("NewMember on a shared Region: %v allocs, want 1", n)
	}
	data := wire.Message{Type: wire.TypeData, From: 0, ID: wire.MessageID{Source: 0, Seq: 1}, Payload: []byte("x")}
	if n := testing.AllocsPerRun(100, func() { NewMember(cfg).Receive(0, data) }); n != 1+2 {
		t.Fatalf("NewMember and a first DATA: %v allocs, want 1+2", n)
	}
	m := NewMember(cfg)
	m.Receive(0, data)
	if !m.HasReceived(data.ID) || m.cold != nil {
		t.Error("a lossless first DATA made the member's cold state")
	}
	a, b := NewMember(cfg), NewMember(cfg)
	if a.buf.Policy() != b.buf.Policy() {
		t.Error("two members of one Region hold two two-phase policies")
	}
}

// TestMsgStateSize keeps a message's record at eleven words: a HAVE makes
// one at every region member that has none, to hold only the announced
// bufferer. Its episodes and back-offs are pointers to records of their
// own, so a record that holds none pays 32 bytes for them, not 72 for two
// embedded timer handles.
func TestMsgStateSize(t *testing.T) {
	if n := unsafe.Sizeof(msgState{}); n > 88 {
		t.Fatalf("msgState is %d bytes, want at most 88", n)
	}
}

// TestMemberSize keeps a Member at its 496 bytes. runner.NewCluster
// makes a group's members in one slice, so the size is the exact per
// member cost with no size-class rounding; a 100k-member trial holds 100k.
// A member holds its hot state: its place in its region's member list, its
// rng, its buffer (core.Buffer, 208 bytes with its index, first index
// slot, occupancy sums, peaks and buffering-time mean), the buffer's rng stream, its source table with the first
// source's reception state inline, the served table, its metrics, and
// pointers to its Region and its cold state.
// It reads the Params, the View's member lists (its own id among them),
// the transport, the scheduler and the tracer through the region, and its
// hooks, detector and churn and fault metrics through the cold state. It
// was 368 bytes (the 384-byte class) beside a separately allocated Buffer
// (240), index header (32), rng (32), eviction closure (16), and, from the
// first message, a sourceState (96) and two one-element tables (8 and 80):
// 888 bytes in eight objects; then 704 with a pointer to the region's
// Params beside the one to the region; then 696, holding its own
// transport, hooks, detector, id and fault metrics, a one-element source
// table and a 312-byte buffer (an index interface, int counters and two
// occupancy integrators); then 544, while the buffer's index kept a
// window layout of its own, 32 bytes wider per source; then 512, while its
// metrics kept an unrecoverable counter beside its unrecovered marks and
// a buffering-time mean its buffer now keeps; then 504, while the buffer
// integrated its occupancy in floats, with a time of its own.
func TestMemberSize(t *testing.T) {
	if n := unsafe.Sizeof(Member{}); n != 496 {
		t.Fatalf("Member is %d bytes, want 496", n)
	}
}
