package netsim

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Agent receives unicast packets addressed to the node it is attached to.
// Receivers, sources and the controller all implement Agent.
type Agent interface {
	// Recv is called once for each unicast packet whose Dst is this node.
	Recv(p *Packet)
}

// MulticastHandler is installed on every node by the multicast routing layer
// (package mcast). It decides replication: which outgoing links a multicast
// packet is forwarded on and which local agents receive it.
type MulticastHandler interface {
	// HandleMulticast is called when a multicast packet arrives at the node
	// (or is originated locally, with from == nil).
	HandleMulticast(n *Node, p *Packet, from *Link)
}

// TransitFilter observes unicast packets passing through a node on their way
// somewhere else — including packets originated at the node itself, since
// SendUnicast enters the forwarding path at the origin. Returning true
// consumes the packet: it is not forwarded further. The filter does not own
// the packet's references (the delivering link still unrefs it), so a filter
// that keeps any part of the payload must take ownership of the payload value
// itself, not retain the *Packet. The in-network report aggregation layer
// (mcast.Aggregator) is the one installer.
type TransitFilter interface {
	FilterTransit(n *Node, p *Packet) bool
}

// Node is a network element: a router, a source host or a receiver host —
// the distinction is only in which agents and handlers are attached.
type Node struct {
	// What a packet arriving or leaving reads comes first, inside the
	// node's first cache line (TestNodeHotLayout pins it): a multicast
	// arrival reads ID and mcast, a unicast hop the memo answers reads
	// ID, net, transit and the memo.
	ID NodeID
	// routeDst and routeLink are the next-hop memo: the last destination
	// route forwarded a packet toward and the link it left on. They hold
	// while routeEpoch equals the network's route epoch (Network.epoch).
	// Both halves of the first word are 32 bits so the memo fits the line.
	routeDst   int32
	routeEpoch uint32
	net        *Network
	mcast      MulticastHandler
	transit    TransitFilter
	routeLink  *Link

	// links holds the outgoing links in ascending neighbor order, once
	// Network.seal has laid out the ones added since; read it through
	// table. agents is an exact-length share of the network's agent
	// blocks until something detaches.
	links  []outLink
	agents []Agent

	// RecvUnicast counts unicast packets delivered locally.
	RecvUnicast int64
	Name        string

	// delivering counts the local deliveries in progress (an agent may send
	// to its own node, so they nest a few deep); holes marks agent slots
	// DetachAgent blanked meanwhile.
	delivering int16
	holes      bool
	// top is the highest neighbour the node has a link to, -1 before its
	// first: Connect looks for a duplicate only below it. It is 32 bits,
	// like routeDst, to fit the node's last word.
	top int32
}

// outLink is one entry of a node's out-link table. The neighbor ID sits
// beside the pointer so a lookup scans contiguous memory and dereferences
// only the link it wants.
type outLink struct {
	to   NodeID
	link *Link
}

func (n *Node) String() string { return fmt.Sprintf("%s(#%d)", n.Name, n.ID) }

// AttachAgent registers an agent for local unicast delivery. A full agent
// list moves to a share one entry longer, carved from the network's agent
// blocks, and gives the old share back; one that DetachAgent shortened
// takes the agent in place.
func (n *Node) AttachAgent(a Agent) {
	if len(n.agents) == cap(n.agents) {
		old := n.agents
		n.agents = n.net.agentShare(len(old) + 1)[:len(old)]
		copy(n.agents, old)
		if n.delivering == 0 && len(old) > 0 { // else a delivery loop still reads it
			n.net.giveAgentShare(old)
		}
	}
	n.agents = append(n.agents, a)
}

// DetachAgent ends local unicast delivery to a; the other agents keep their
// order. Inside this node's own delivery loop it only blanks a's slot, so no
// sibling is skipped or called twice; the loop closes the gap when it ends.
func (n *Node) DetachAgent(a Agent) {
	if i := slices.Index(n.agents, a); i >= 0 {
		n.agents[i], n.holes = nil, true
		n.compactAgents()
	}
}

// compactAgents closes DetachAgent's gaps once no delivery is running.
func (n *Node) compactAgents() {
	if n.holes && n.delivering == 0 {
		n.agents = slices.DeleteFunc(n.agents, func(a Agent) bool { return a == nil })
		n.holes = false
	}
}

// NumAgents returns how many agents are attached for local delivery. Read
// it outside a delivery.
func (n *Node) NumAgents() int { return len(n.agents) }

// SetMulticastHandler installs the multicast forwarding logic.
func (n *Node) SetMulticastHandler(h MulticastHandler) { n.mcast = h }

// SetTransitFilter installs (or, with nil, removes) the node's transit
// filter. At most one filter per node; without one the forwarding path is
// exactly the pre-filter code plus a single nil check.
func (n *Node) SetTransitFilter(f TransitFilter) { n.transit = f }

// LinkTo returns the outgoing link to neighbor, or nil. It runs once per
// unicast hop: a binary search narrows a high-degree table (a star hub has
// 10^5 neighbors) to a window the final linear scan covers, and at router
// degree the scan is the whole lookup.
func (n *Node) LinkTo(neighbor NodeID) *Link {
	links := n.table()
	lo, hi := 0, len(links)
	for hi-lo > 8 {
		if mid := (lo + hi) / 2; links[mid].to <= neighbor {
			lo = mid
		} else {
			hi = mid
		}
	}
	for _, ol := range links[lo:hi] {
		if ol.to == neighbor {
			return ol.link
		}
	}
	return nil
}

// table returns the out-link table with every link added so far in it.
func (n *Node) table() []outLink {
	if n.net.pend != nil {
		n.net.seal()
	}
	return n.links
}

// addLink inserts l into the out-link table, keeping it sorted; the
// table's share has room for it (Network.seal).
func (n *Node) addLink(l *Link) {
	i := len(n.links)
	n.links = append(n.links, outLink{})
	for ; i > 0 && n.links[i-1].to > l.To; i-- {
		n.links[i] = n.links[i-1]
	}
	n.links[i] = outLink{to: l.To, link: l}
}

// Neighbors returns the IDs of directly connected nodes in ascending order
// (deterministic order matters: replication order affects queueing).
func (n *Node) Neighbors() []NodeID {
	links := n.table()
	out := make([]NodeID, len(links))
	for i, ol := range links {
		out[i] = ol.to
	}
	return out
}

// Links returns the node's outgoing links in ascending neighbor order.
func (n *Node) Links() []*Link {
	links := n.table()
	out := make([]*Link, len(links))
	for i, ol := range links {
		out[i] = ol.link
	}
	return out
}

// SendUnicast routes a unicast packet toward p.Dst using the network's
// next-hop tables. If Dst is the node itself the packet is delivered locally
// without touching a link.
func (n *Node) SendUnicast(p *Packet) {
	if p.Multicast() {
		panic("netsim: SendUnicast called with a multicast packet")
	}
	n.route(p)
}

// SendMulticastLocal hands a locally originated multicast packet to the
// multicast handler (which forwards it down the distribution tree).
func (n *Node) SendMulticastLocal(p *Packet) {
	if !p.Multicast() {
		panic("netsim: SendMulticastLocal called with a unicast packet")
	}
	if n.mcast == nil {
		panic(fmt.Sprintf("netsim: node %v has no multicast handler", n))
	}
	n.mcast.HandleMulticast(n, p, nil)
}

// deliver is the arrival point for packets coming off a link.
func (n *Node) deliver(p *Packet, from *Link) {
	if p.Multicast() {
		if n.mcast != nil {
			n.mcast.HandleMulticast(n, p, from)
		}
		return
	}
	n.route(p)
}

// route advances a unicast packet one step: local delivery or next hop.
// The next hop is the memo's when it holds the packet's destination, and
// NextHop plus LinkTo otherwise, which refill the memo; an unroutable
// packet leaves it as it was. The memo answers exactly what they would:
// every change to the routes bumps the epoch it was filled in.
func (n *Node) route(p *Packet) {
	if p.Dst == n.ID {
		n.RecvUnicast++
		n.delivering++
		for _, a := range n.agents {
			if a != nil {
				a.Recv(p)
			}
		}
		n.delivering--
		n.compactAgents()
		return
	}
	if n.transit != nil && n.transit.FilterTransit(n, p) {
		return // consumed in-network (report aggregation)
	}
	if p.Dst == NodeID(n.routeDst) && n.routeEpoch == n.net.epoch {
		n.routeLink.Send(p)
		return
	}
	next := n.net.NextHop(n.ID, p.Dst)
	if next == NoNode {
		// Unroutable packets are silently dropped, like in a real network.
		// Any shard can hit this; the counter is cold, so always atomic.
		atomic.AddInt64(&n.net.Unroutable, 1)
		p.dropped()
		return
	}
	l := n.LinkTo(next)
	n.routeDst, n.routeLink, n.routeEpoch = int32(p.Dst), l, n.net.epoch
	l.Send(p)
}
