package gossipfd

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/wire"
)

// manualSched is a hand-cranked clock.Scheduler: timers fire only inside
// advance, in (deadline, scheduling order). It is a clock.Armer that keeps
// its timers by value, so the detector's clock.Handle arms without
// allocating once the slice has grown, as on sim.Sim; After, which the
// reference detector uses, allocates one *manualStop.
type manualSched struct {
	now    time.Duration
	seq    uint32
	timers []manualTimer
}

var _ clock.Armer = (*manualSched)(nil)

type manualTimer struct {
	at  time.Duration
	seq uint32
	f   clock.Firer
}

func (s *manualSched) Now() time.Duration { return s.now }

func (s *manualSched) ArmAfter(d time.Duration, f clock.Firer) (clock.Canceller, uint32, uint32) {
	if d < 0 {
		d = 0
	}
	s.seq++
	s.timers = append(s.timers, manualTimer{at: s.now + d, seq: s.seq, f: f})
	return s, s.seq, 0
}

// Cancel removes the pending timer ArmAfter numbered ref.
func (s *manualSched) Cancel(ref, _ uint32) bool {
	for i, t := range s.timers {
		if t.seq == ref {
			s.timers = append(s.timers[:i], s.timers[i+1:]...)
			return true
		}
	}
	return false
}

func (s *manualSched) After(d time.Duration, fn func()) clock.Timer {
	_, ref, _ := s.ArmAfter(d, clock.Func(fn))
	return &manualStop{s: s, ref: ref}
}

type manualStop struct {
	s   *manualSched
	ref uint32
}

func (t *manualStop) Stop() bool { return t.s.Cancel(t.ref, 0) }

// advance fires every timer due at or before to, then sets now = to.
func (s *manualSched) advance(to time.Duration) {
	for {
		next := -1
		for i, t := range s.timers {
			if t.at <= to && (next < 0 || t.at < s.timers[next].at || t.at == s.timers[next].at && t.seq < s.timers[next].seq) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		t := s.timers[next]
		s.Cancel(t.seq, 0)
		s.now = t.at
		t.f.Fire()
	}
	s.now = to
}

// fdAPI is what the differential test drives on both implementations.
type fdAPI interface {
	Start()
	Stop()
	Receive(wire.Message)
	Suspected(topology.NodeID) bool
	Live() []topology.NodeID
}

type sentPDU struct {
	at       time.Duration
	to       topology.NodeID
	counters []uint64
}

type callback struct {
	at      time.Duration
	restore bool
	peer    topology.NodeID
}

// rig is one detector under test with everything it can observably do
// recorded.
type rig struct {
	sched *manualSched
	rng   *rng.Source
	fd    fdAPI
	sent  []sentPDU
	calls []callback
	// onNet holds the tables of sent PDUs still on the network, each
	// with the index of its entry in sent.
	onNet []netTable
}

// netTable is a sent heartbeat's table itself, not a copy.
type netTable struct {
	table []uint64
	sent  int
}

func newRig(cfg Config, seed uint64, build func(Config) fdAPI) *rig {
	r := &rig{sched: &manualSched{now: 3 * time.Millisecond}, rng: rng.New(seed)}
	cfg.Sched, cfg.Rng = r.sched, r.rng
	cfg.Send = func(to topology.NodeID, msg wire.Message) {
		if msg.Type != wire.TypeHeartbeat || msg.From != cfg.View.Self {
			panic(fmt.Sprintf("unexpected PDU %v from %d", msg.Type, msg.From))
		}
		r.onNet = append(r.onNet, netTable{msg.Counters, len(r.sent)})
		r.sent = append(r.sent, sentPDU{r.sched.now, to, append([]uint64(nil), msg.Counters...)})
	}
	cfg.OnSuspect = func(n topology.NodeID) { r.calls = append(r.calls, callback{r.sched.now, false, n}) }
	cfg.OnRestore = func(n topology.NodeID) { r.calls = append(r.calls, callback{r.sched.now, true, n}) }
	r.fd = build(cfg)
	return r
}

// sortedCalls orders same-instant callbacks canonically: the reference
// emits one sweep's suspicions in map order, so only the grouping by
// instant is comparable.
func (r *rig) sortedCalls() []callback {
	out := append([]callback(nil), r.calls...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.restore != b.restore {
			return !a.restore
		}
		return a.peer < b.peer
	})
	return out
}

// diffView builds a region view by hand: contiguous ids, or ids with gaps
// (so Suspected is also asked about non-members between members).
func diffView(r *rng.Source, size int, gaps bool) topology.View {
	members := make([]topology.NodeID, size)
	id := topology.NodeID(r.Intn(50))
	for i := range members {
		members[i] = id
		id++
		if gaps {
			id += topology.NodeID(r.Intn(3))
		}
	}
	self := r.Intn(size)
	return topology.View{Self: members[self], RegionMembers: members, SelfIdx: self}
}

// TestDifferentialAgainstMapDetector drives the dense detector and the
// frozen map detector (reference_test.go) through seeded random schedules
// and requires everything observable to agree: heartbeat PDUs (instant,
// target, counters), rng consumption, Suspected/Live after every step and
// the OnSuspect/OnRestore sequences. The dense detector's own PDUs meet
// the fates the network deals them: dropped (the table comes back through
// Recycle, as rrmp's netsim.PacketDropper hands it back), never delivered
// (it is lost to the collector), or delivered back to the detector and
// recycled after the merge. A table must read as it was sent until its
// fate, so a table handed out twice shows as a PDU that changed in
// flight.
func TestDifferentialAgainstMapDetector(t *testing.T) {
	const schedules = 240
	sizes := []int{1, 2, 3, 5, 8, 13, 70, 131}
	var suspects, restores, drops, readmits, fallbacks int
	var fates [3]int // dropped, undelivered, delivered back
	for seed := uint64(1); seed <= schedules; seed++ {
		script := rng.New(seed * 7919)
		cfg := Config{View: diffView(script, sizes[int(seed)%len(sizes)], seed%3 == 0)}
		dense := newRig(cfg, seed, func(c Config) fdAPI { return New(c) })
		ref := newRig(cfg, seed, func(c Config) fdAPI { return newRef(c) })

		n := len(cfg.View.RegionMembers)
		world := make([]uint64, n) // each peer's true heartbeat counter
		alive := make([]bool, n)
		for i := range alive {
			alive[i] = true
		}
		both := func(f func(r *rig)) { f(dense); f(ref) }
		both(func(r *rig) { r.fd.Start() })

		for step := 0; step < 300; step++ {
			sentBefore := len(dense.sent)
			switch k := script.Intn(100); {
			case k < 45: // a heartbeat table arrives
				counters := make([]uint64, n)
				for i := range counters {
					if alive[i] {
						world[i] += uint64(script.Intn(3))
					}
					switch script.Intn(6) {
					case 0: // the sender never heard of i
					case 1: // stale: at or below what circulated before
						counters[i] = world[i] - uint64(script.Intn(int(world[i])+1))
					default:
						counters[i] = world[i]
					}
				}
				switch script.Intn(8) {
				case 0: // shorter than the table
					counters = counters[:script.Intn(n+1)]
				case 1: // longer than the table
					counters = append(counters, uint64(script.Intn(1000)), 7)
				}
				msg := wire.Message{Type: wire.TypeHeartbeat, From: cfg.View.RegionMembers[script.Intn(n)], Counters: counters}
				ref.fd.Receive(msg)
				// The dense detector gets its own copy and, as under rrmp,
				// gets it back as a spare: its next PDUs ride in recycled
				// tables and must still read as the reference's fresh ones.
				msg.Counters = slices.Clone(counters)
				dense.fd.Receive(msg)
				dense.fd.(*Detector).Recycle(msg.Counters)
			case k < 50: // a PDU that is not a heartbeat but carries counters
				msg := wire.Message{Type: wire.TypeData, Counters: []uint64{1 << 40, 1 << 40, 1 << 40}}
				both(func(r *rig) { r.fd.Receive(msg) })
			case k < 58: // a peer goes silent or comes back
				i := script.Intn(n)
				alive[i] = !alive[i]
			case k < 62: // Stop, possibly for longer than cleanupTimeout, Start
				pause := time.Duration(script.Intn(int(2 * cleanupTimeout)))
				both(func(r *rig) {
					r.fd.Stop()
					r.fd.Stop()
					r.sched.advance(r.sched.now + pause)
					r.fd.Start()
					r.fd.Start()
				})
			case k < 70 && len(dense.onNet) > 0: // a sent PDU meets its fate
				j := script.Intn(len(dense.onNet))
				pdu := dense.onNet[j]
				dense.onNet = slices.Delete(dense.onNet, j, j+1)
				if !slices.Equal(pdu.table, dense.sent[pdu.sent].counters) {
					t.Fatalf("seed %d step %d: PDU %d changed on the network: %v, sent %v", seed, step, pdu.sent, pdu.table, dense.sent[pdu.sent].counters)
				}
				fate := script.Intn(3)
				fates[fate]++
				switch fate {
				case 0:
					dense.fd.(*Detector).Recycle(pdu.table)
				case 2:
					msg := wire.Message{Type: wire.TypeHeartbeat, From: dense.sent[pdu.sent].to, Counters: slices.Clone(pdu.table)}
					ref.fd.Receive(msg)
					msg.Counters = pdu.table
					dense.fd.Receive(msg)
					dense.fd.(*Detector).Recycle(pdu.table)
				}
			default: // time passes, ticks fire
				dt := time.Duration(script.Intn(int(90 * time.Millisecond)))
				if script.Intn(12) == 0 {
					dt = time.Duration(script.Intn(int(2 * cleanupTimeout)))
				}
				both(func(r *rig) { r.sched.advance(r.sched.now + dt) })
			}

			// A PDU sent in a step that ends with nobody live went to a
			// target drawn from the static view.
			if d := dense.fd.(*Detector); d.nLive == 0 && len(dense.sent) > sentBefore {
				fallbacks++
			}
			if len(dense.sent) != len(ref.sent) {
				t.Fatalf("seed %d step %d: dense sent %d PDUs, reference %d", seed, step, len(dense.sent), len(ref.sent))
			}
			if got, want := dense.fd.Live(), ref.fd.Live(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: Live() = %v, reference %v", seed, step, got, want)
			}
			lo, hi := cfg.View.RegionMembers[0], cfg.View.RegionMembers[n-1]
			for id := lo - 2; id <= hi+2; id++ {
				if got, want := dense.fd.Suspected(id), ref.fd.Suspected(id); got != want {
					t.Fatalf("seed %d step %d: Suspected(%d) = %v, reference %v", seed, step, id, got, want)
				}
			}
		}

		if !reflect.DeepEqual(dense.sent, ref.sent) {
			for i := range dense.sent {
				if !reflect.DeepEqual(dense.sent[i], ref.sent[i]) {
					t.Fatalf("seed %d: PDU %d = %+v, reference %+v", seed, i, dense.sent[i], ref.sent[i])
				}
			}
		}
		if got, want := dense.sortedCalls(), ref.sortedCalls(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: callbacks\n dense %+v\n ref   %+v", seed, got, want)
		}
		if got, want := dense.rng.Uint64(), ref.rng.Uint64(); got != want {
			t.Fatalf("seed %d: rng streams diverged (next draw %d, reference %d)", seed, got, want)
		}
		if dense.sched.now != ref.sched.now || len(dense.sched.timers) != len(ref.sched.timers) {
			t.Fatalf("seed %d: schedulers diverged", seed)
		}

		// Coverage accounting: the schedules must actually reach the paths
		// the comparison is for.
		d := dense.fd.(*Detector)
		for _, c := range dense.calls {
			if c.restore {
				restores++
			} else {
				suspects++
			}
		}
		if d.tombstone != nil {
			drops++
		}
		for i, s := range d.state {
			if s == peerLive && i != d.selfIdx && d.tombstone != nil && d.tombstone[i] > 0 {
				readmits++ // a slot that was dropped once and is live again
			}
		}
	}
	t.Logf("%d schedules: %d suspects, %d restores, %d with drops, %d re-admitted slots, %d steps gossiping on the static fallback; own PDUs %d dropped, %d undelivered, %d delivered back",
		schedules, suspects, restores, drops, readmits, fallbacks, fates[0], fates[1], fates[2])
	for name, v := range map[string]int{"suspects": suspects, "restores": restores, "drops": drops, "re-admissions": readmits, "fallbacks": fallbacks,
		"dropped tables": fates[0], "undelivered tables": fates[1], "tables delivered back": fates[2]} {
		if v == 0 {
			t.Errorf("no schedule exercised %s", name)
		}
	}
}
