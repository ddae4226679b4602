package rrmp

import (
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// tableLedger follows a region's heartbeat tables from the tick that sends
// one until the network delivers or drops it. Its transport side notes a
// table as it leaves; its receiver side (ledgerReceiver) strikes it off as
// it arrives or is dropped, then hands the packet to the member.
type tableLedger struct {
	t     *testing.T
	c     *cluster
	onNet map[*uint64][]uint64 // a table on the network, and a copy as sent
	known map[*uint64]bool     // every table ever sent
	// made holds the instant each table was first sent: a tick allocated
	// it then, for its free list was empty.
	made                []time.Duration
	delivered, dropped  int
	deliveredToDeparted int
}

type ledgerTransport struct {
	Transport
	l *tableLedger
}

func (lt ledgerTransport) Send(from, to topology.NodeID, msg wire.Message) {
	if l := lt.l; msg.Type == wire.TypeHeartbeat {
		key := &msg.Counters[0]
		if _, twice := l.onNet[key]; twice {
			l.t.Fatalf("%v: member %d sent a table that is still on the network", l.c.sim.Now(), from)
		}
		if !l.known[key] {
			// No table is lost: a tick allocates only when every table the
			// region owns is on the network.
			if len(l.onNet) != len(l.known) {
				l.t.Fatalf("%v: member %d allocated a table while %d of the region's %d are off the network", l.c.sim.Now(), from, len(l.known)-len(l.onNet), len(l.known))
			}
			l.known[key] = true
			l.made = append(l.made, l.c.sim.Now())
		}
		l.onNet[key] = slices.Clone(msg.Counters)
	}
	lt.Transport.Send(from, to, msg)
}

// ledgerReceiver is a member's network registration, as a
// netsim.PacketDropper like the member itself.
type ledgerReceiver struct {
	m *Member
	l *tableLedger
}

func (r ledgerReceiver) ReceivePacket(p *netsim.Packet) {
	if r.l.strike(p) && (r.m.left || r.m.crashed) {
		r.l.deliveredToDeparted++
	}
	r.m.ReceivePacket(p)
}

func (r ledgerReceiver) DropPacket(p *netsim.Packet) {
	if r.l.strike(p) {
		r.l.dropped++
	}
	r.m.DropPacket(p)
}

// strike takes a heartbeat's table off the network, checking it reads as
// it was sent; it reports whether p was a heartbeat.
func (l *tableLedger) strike(p *netsim.Packet) bool {
	if p.Msg.Type != wire.TypeHeartbeat {
		return false
	}
	key := &p.Msg.Counters[0]
	sent, ok := l.onNet[key]
	if !ok {
		l.t.Fatalf("%v: a table that is not on the network arrived from %d", l.c.sim.Now(), p.From)
	}
	if !slices.Equal(sent, p.Msg.Counters) {
		l.t.Fatalf("%v: a table from %d changed on the network: %v, sent %v", l.c.sim.Now(), p.From, p.Msg.Counters, sent)
	}
	delete(l.onNet, key)
	l.delivered++
	return true
}

// TestDroppedHeartbeatTablesComeBack runs a 16-member region whose
// detectors lose heartbeats to a 10 % loss model and to a fault from 1 s
// on: a partition that heals after 1.5 s (longer than cleanupTimeout, so
// peers are dropped and re-admitted), three crashes of which one
// recovers, or two leaves. Every table a member is sent, or that the
// network drops on the way to it, goes back to the region's free list
// (netsim.PacketDropper, and a departed member's receive), so the region
// allocates tables only while every table it owns is on the network, and
// none after its first second. A table handed out twice would show as a
// table sent while on the network, or one that changed in flight.
func TestDroppedHeartbeatTablesComeBack(t *testing.T) {
	faults := map[string]func(c *cluster){
		"partition": func(c *cluster) {
			c.sim.At(time.Second, func() {
				class := map[topology.NodeID]int{}
				for _, n := range c.all[8:] {
					class[n] = 1
				}
				c.net.SetPartition(class)
			})
			c.sim.At(2500*time.Millisecond, c.net.ClearPartition)
		},
		"crash": func(c *cluster) {
			c.sim.At(time.Second, func() {
				for _, n := range c.all[5:8] {
					c.crashNode(n)
				}
			})
			c.sim.At(2500*time.Millisecond, func() { c.recoverNode(c.all[6]) })
		},
		"leave": func(c *cluster) {
			c.sim.At(time.Second, func() {
				c.members[c.all[3]].Leave()
				c.members[c.all[9]].Leave()
			})
		},
	}
	for _, name := range []string{"partition", "crash", "leave"} {
		t.Run(name, func(t *testing.T) {
			params := DefaultParams()
			params.FDEnabled = true
			topo := singleRegion(t, 16)
			c := newCluster(t, topo, params, 3, netsim.NewHashLoss(5, 0.1, topo.NumNodes(), nil))
			l := &tableLedger{t: t, c: c, onNet: map[*uint64][]uint64{}, known: map[*uint64]bool{}}
			region := c.members[0].region
			region.transport = ledgerTransport{region.transport, l}
			for n, m := range c.members {
				c.net.RegisterReceiver(n, ledgerReceiver{m, l})
			}
			faults[name](c)
			c.sim.RunUntil(5 * time.Second)

			t.Logf("%d tables made, the last at %v; %d heartbeats delivered (%d to departed members), %d dropped",
				len(l.made), l.made[len(l.made)-1], l.delivered-l.dropped, l.deliveredToDeparted, l.dropped)
			if last := l.made[len(l.made)-1]; last >= time.Second {
				t.Errorf("a table was allocated at %v, after the first second", last)
			}
			if l.dropped == 0 {
				t.Error("no heartbeat was dropped")
			}
			if name == "leave" && l.deliveredToDeparted == 0 {
				t.Error("no heartbeat reached a member that left")
			}
		})
	}
}
