// Package netsim models a packet-switched network on top of the sim engine:
// nodes, unidirectional links with finite bandwidth, propagation delay and
// drop-tail FIFO queues, and hop-by-hop unicast forwarding over shortest
// paths. Multicast forwarding is layered on by package mcast through the
// Node's MulticastHandler hook.
//
// The model matches what the paper's ns simulations relied on: packets
// experience serialization delay (size/bandwidth), propagation delay
// (200 ms per link in the experiments) and drop-tail loss when a queue
// overflows. Nothing else — no link errors, no reordering within a link.
package netsim

import (
	"fmt"
	"sync/atomic"

	"toposense/internal/sim"
)

// NodeID identifies a node within one Network. IDs are dense, starting at 0,
// in creation order; they double as indices into routing tables.
type NodeID int

// NoNode is the zero-value-adjacent sentinel for "no node".
const NoNode NodeID = -1

// GroupID identifies a multicast group (one session layer maps to one group).
// Negative means "not a multicast packet".
type GroupID int

// NoGroup marks a unicast packet.
const NoGroup GroupID = -1

// PacketKind distinguishes media data from control traffic. Both kinds share
// links and queues — the paper's controller traffic competes with data and
// can be lost to congestion.
type PacketKind uint8

const (
	// Data is layered media traffic addressed to a multicast group.
	Data PacketKind = iota
	// Control is unicast control traffic: receiver reports, controller
	// suggestions, registration messages.
	Control
)

func (k PacketKind) String() string {
	switch k {
	case Data:
		return "data"
	case Control:
		return "control"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Packet is a simulated packet. Packets are immutable once sent; forwarding
// shares the same *Packet across all tree branches, so handlers must not
// mutate one after sending.
//
// Packets come in two flavours. A literal (&Packet{...}) is garbage-collected
// as usual — the reference-counting methods are no-ops on it. A pooled packet
// (Network.NewPacket) is recycled through the network's free list: every link
// that accepts it takes a reference, the originator holds one until its Send
// call returns, and when the last reference drops the struct goes back to the
// pool. Handlers and probes must therefore never retain a *Packet beyond the
// callback that delivered it — copy the fields instead. The same holds for a
// Payload that points into the packet's side-car: it is the next packet's
// storage as soon as this one is recycled.
type Packet struct {
	Kind PacketKind
	// refs counts outstanding references (pooled packets only). It shares
	// Kind's word, which keeps the struct in the 112-byte size class with
	// the side-car added.
	refs    int32
	Src     NodeID  // originating node
	Dst     NodeID  // unicast destination; NoNode for multicast packets
	Group   GroupID // multicast group; NoGroup for unicast packets
	Session int     // session the packet belongs to (media and reports)
	Layer   int     // layer index (1-based) for media packets
	Seq     int64   // per-(session,layer) sequence number for loss detection
	Size    int     // bytes, including headers
	Sent    sim.Time
	Payload any // typed control payloads; nil for media

	// side is payload storage that stays with the struct across recycles, so
	// a pooled control packet can point Payload into it and allocate nothing.
	// Whoever first sends a payload of its kind on this packet allocates it
	// (SetSidecar); media packets never do.
	side Sidecar

	pool *Network // owning pool; nil for literal packets
}

// Sidecar is payload storage parked on a Packet (see Packet.side). The
// payload's package defines it; netsim only keeps it across recycles.
type Sidecar interface {
	// Poison overwrites the storage with values no consumer can take for
	// data. Test binaries call it on every recycle, so a payload pointer
	// kept beyond the delivery callback fails loudly instead of reading the
	// next packet's numbers.
	Poison()
}

// Sidecar returns the packet's retained payload storage, nil until set.
func (p *Packet) Sidecar() Sidecar { return p.side }

// SetSidecar parks payload storage on the packet; it outlives recycling.
func (p *Packet) SetSidecar(s Sidecar) { p.side = s }

// recycle clears every field but the side-car (notably Payload, so nothing
// leaks via the pool). The caller holds the last reference.
func (p *Packet) recycle() {
	side := p.side
	if sim.Poison && side != nil && p.Payload != nil {
		side.Poison()
	}
	*p = Packet{side: side}
}

// releaser is a payload that owns pooled storage of its own
// (report.Aggregate, report.SuggestionBatch) and hands it back with Release.
type releaser interface{ Release() }

// dropped is called once the network has discarded p, after the probes saw
// it. A unicast packet travels one path, so no one else will consume its
// payload: one with pooled storage goes back to its pool. A multicast
// packet's payload is shared by every branch and is left alone.
func (p *Packet) dropped() {
	if p.Multicast() {
		return
	}
	if r, ok := p.Payload.(releaser); ok {
		r.Release()
	}
}

// Multicast reports whether the packet is addressed to a group.
func (p *Packet) Multicast() bool { return p.Group != NoGroup }

// Pooled reports whether the packet came from a network's packet pool.
func (p *Packet) Pooled() bool { return p.pool != nil }

// ref takes one reference on a pooled packet; a no-op for literals. On a
// partitioned network a multicast packet is referenced concurrently by
// links in different shards, so the count moves atomically there.
func (p *Packet) ref() {
	if p.pool == nil {
		return
	}
	if p.pool.se != nil {
		atomic.AddInt32(&p.refs, 1)
		return
	}
	p.refs++
}

// unref drops one reference; the last drop returns the packet to its pool.
// A no-op for literals.
func (p *Packet) unref() {
	if p.pool == nil {
		return
	}
	if p.pool.se != nil {
		switch r := atomic.AddInt32(&p.refs, -1); {
		case r > 0:
			return
		case r < 0:
			panic(fmt.Sprintf("netsim: packet %v released below zero references", p))
		}
		// r == 0: this was the last holder; the struct is exclusively ours.
		pool := p.pool
		p.recycle()
		pool.poolMu.Lock()
		pool.pktFree = append(pool.pktFree, p)
		pool.poolMu.Unlock()
		return
	}
	p.refs--
	if p.refs > 0 {
		return
	}
	if p.refs < 0 {
		panic(fmt.Sprintf("netsim: packet %v released below zero references", p))
	}
	pool := p.pool
	p.recycle()
	pool.pktFree = append(pool.pktFree, p)
}

// Release drops the originator's reference on a pooled packet. The producer
// that called Network.NewPacket must call Release exactly once, after the
// Send/SendUnicast/SendMulticastLocal call returns. Safe (and a no-op) on
// literal packets, so producers can treat both flavours uniformly.
func (p *Packet) Release() { p.unref() }

func (p *Packet) String() string {
	if p.Multicast() {
		return fmt.Sprintf("%s s%d/l%d seq%d grp%d %dB", p.Kind, p.Session, p.Layer, p.Seq, p.Group, p.Size)
	}
	return fmt.Sprintf("%s %d->%d %dB", p.Kind, p.Src, p.Dst, p.Size)
}
