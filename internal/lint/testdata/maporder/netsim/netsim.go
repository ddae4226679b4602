// Package netsim models the network's sending surface for the maporder
// analyzer: its Unicast and Multicast methods post delivery events.
package netsim

// Network is a stub network.
type Network struct{ sent int }

// Unicast sends to one node.
func (n *Network) Unicast(from, to int) { n.sent++ }

// Multicast sends to every target.
func (n *Network) Multicast(from int, targets []int) { n.sent += len(targets) }

// Sent is a read-only accessor, not a post.
func (n *Network) Sent() int { return n.sent }
