package rmtp

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// refFloor is the frozen map-walk ACK floor the kept minimum replaced:
// the least of the server's own prefix and every tracked acker's floor.
// FuzzAckFloorDifferential holds the kept minimum to it.
func refFloor(prefix uint64, floors map[topology.NodeID]uint64) uint64 {
	floor := prefix
	for _, f := range floors {
		if f < floor {
			floor = f
		}
	}
	return floor
}

// floorServer builds a repair server whose region is the contiguous range
// [10, 10+size) and whose child servers are children stray ids, with
// sends that vanish and a simulator that never runs.
func floorServer(size, children int) (*Node, []topology.NodeID) {
	members := make([]topology.NodeID, size)
	for i := range members {
		members[i] = topology.NodeID(10 + i)
	}
	var kids []topology.NodeID
	for j := range children {
		kids = append(kids, topology.NodeID(100+7*j))
	}
	n := New(Config{
		View:         topology.View{Self: members[0], RegionMembers: members, ParentMembers: []topology.NodeID{3}},
		ChildServers: kids,
		Transport:    dropTransport{},
		Sched:        sim.New(),
		Rng:          rng.New(1),
	})
	return n, append(members, kids...)
}

// FuzzAckFloorDifferential drives one repair server through ACKs (from
// members, child servers, itself and a stranger), forgotten ackers,
// deliveries that move its own prefix, crashes, recoveries and a leave,
// and mirrors the floor bookkeeping in a map as the code before the kept
// minimum did. After every step the server's floor must equal refFloor,
// its trim point the reference's, and its kept minimum and count the
// minimum and count of its floor slots.
func FuzzAckFloorDifferential(f *testing.F) {
	f.Add([]byte{5, 2, 0x00, 0x11, 0x02, 0x13, 0x04, 0x15})
	// Deliveries, then every acker in turn, round after round: the last
	// floor at the minimum rises once per round.
	f.Add([]byte{3, 1, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45,
		0x01, 0x02, 0x03, 0x04, 0x11, 0x12, 0x13, 0x14, 0x21, 0x22, 0x23, 0x24, 0x31, 0x32, 0x33, 0x34})
	// Forgetting the last acker at the minimum, then a crash that defers
	// the trim, a late ACK ignored while down, and a recovery.
	f.Add([]byte{3, 0, 0x40, 0x41, 0x42, 0x04, 0x15, 0x51, 0x61, 0x25, 0x71, 0x16, 0x26})
	// A stranger's and the server's own ACKs, and a leave.
	f.Add([]byte{2, 1, 0x07, 0x1f, 0x2f, 0x3f, 0x48, 0x49, 0x0b, 0x81, 0x12})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		size, children := 1+int(script[0])%12, int(script[1])%4
		n, ackers := floorServer(size, children)
		ackers = append(ackers, 5) // a stranger
		ref := map[topology.NodeID]uint64{}
		for _, a := range ackers[1 : size+children] {
			ref[a] = 0
		}
		var trimmed uint64
		crashed, left := false, false
		trim := func() { trimmed = max(trimmed, refFloor(n.received.Prefix(), ref)) }
		for step, b := range script[2:] {
			who := ackers[int(b&0x0f)%len(ackers)]
			switch op := b >> 4; {
			case op < 4: // an ACK of op more than a floor that grows with the step
				seq := uint64(op) + uint64(step)/4
				n.receive(who, &wire.Message{Type: wire.TypeAck, From: who, TopSeq: seq})
				if old, tracked := ref[who]; tracked && !crashed && !left {
					ref[who] = max(old, seq)
					trim()
				}
			case op < 5: // a delivery from the source, moving the prefix
				n.receive(3, &wire.Message{Type: wire.TypeData, From: 3, ID: wire.MessageID{Source: 3, Seq: uint64(b&0x0f) + 1}})
			case op < 6:
				n.ForgetAcker(who)
				if _, tracked := ref[who]; tracked && !left {
					delete(ref, who)
					if !crashed {
						trim()
					}
				}
			case op < 7:
				n.Crash()
				crashed = crashed || !left
			case op < 8:
				n.Recover()
				crashed = false
			case op < 9 && !crashed:
				n.Leave()
				left = true
			}
			if got, want := n.aggregateFloor(), refFloor(n.received.Prefix(), ref); got != want {
				t.Fatalf("step %d (%#02x): floor %d, reference %d", step, b, got, want)
			}
			if n.trimmed != trimmed {
				t.Fatalf("step %d (%#02x): trimmed to %d, reference %d", step, b, n.trimmed, trimmed)
			}
			least, count := uint64(forgotten), 0
			for _, f := range n.ackFloors {
				switch {
				case f < least:
					least, count = f, 1
				case f == least:
					count++
				}
			}
			if n.minFloor != least || n.atMin != count {
				t.Fatalf("step %d (%#02x): kept minimum %d ×%d, slots hold %d ×%d", step, b, n.minFloor, n.atMin, least, count)
			}
		}
	})
}
