package gossipfd

import "repro/internal/topology"

// Live returns the sorted region members currently considered alive
// (including self).
func (d *Detector) Live() []topology.NodeID {
	out := make([]topology.NodeID, 0, d.nLive+1)
	for i, s := range d.state {
		if s == peerLive {
			out = append(out, d.order[i])
		}
	}
	return out
}
