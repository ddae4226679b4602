// Package net has a method with no results whose effect lies beyond its
// receiver, like netsim.Network.Unicast.
package net

type Network struct{ inbox []string }

func (n *Network) Unicast(msg string) { n.inbox = append(n.inbox, msg) }

func (n *Network) Pending() int { return len(n.inbox) }
