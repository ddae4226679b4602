package node

import (
	"repro/internal/net"
	"repro/internal/stats"
)

type Metrics struct {
	// Sent is only incremented: a finding.
	Sent stats.Counter
	// Merged is incremented and read only to merge into another Merged,
	// like netsim's old per-type delivered counter: a finding.
	Merged [2]stats.Counter
	// Recv is incremented and read: clean.
	Recv stats.Counter
}

// Transport calls a result-less method on Net whose effect is the send
// itself: clean, since net is not the stats package.
type Transport struct {
	Net *net.Network
}

func (m *Metrics) send(t *Transport, kind int) {
	m.Sent.Inc()
	m.Merged[kind].Inc()
	t.Net.Unicast("data")
}

func (m *Metrics) recv() { m.Recv.Inc() }

func (m *Metrics) add(o *Metrics) {
	for i := 0; i < 2; i++ {
		m.Merged[i].Add(o.Merged[i].Value())
	}
	m.Recv.Add(o.Recv.Value())
}

// Report reads what the node exposes. It reads the network directly, so
// Transport.Net is consulted only through Unicast.
func Report(shards []*Metrics, nw *net.Network) (int64, int) {
	t := &Transport{Net: nw}
	var total Metrics
	for _, s := range shards {
		s.send(t, 0)
		s.recv()
		total.add(s)
	}
	return total.Recv.Value(), nw.Pending()
}
