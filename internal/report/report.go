// Package report defines the control-plane message payloads exchanged
// between receivers and the controller agent: registration, periodic
// loss/byte reports (the RTCP-like feedback the paper assumes), and the
// controller's subscription suggestions. These payloads ride in
// netsim.Packet.Payload on Control packets, so they share links and queues
// with media traffic and can be lost to congestion — as in the paper's
// simulations.
//
// Consumers switch on one form per kind, always a pointer: *Register,
// *Deregister, *LossReport, *Suggestion, *Aggregate and *SuggestionBatch.
// The first four are recycled with the packet that delivered them; the last
// two are pooled on their own and readable until their consumer's Release.
package report

import (
	"fmt"
	"math"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// Wire sizes in bytes. Loss reports are small, like RTCP receiver reports.
const (
	RegisterSize   = 64
	LossReportSize = 96
	SuggestionSize = 64
	DeregisterSize = 48
)

// Register announces a receiver to the controller when it starts
// subscribing to a session.
type Register struct {
	Node    netsim.NodeID // the receiver's node
	Session int
	Level   int // initial subscription level
}

func (r Register) String() string {
	return fmt.Sprintf("register node=%d s=%d lvl=%d", r.Node, r.Session, r.Level)
}

// Deregister announces a receiver's departure from a session: the
// controller must forget it (no further suggestions, no ghost entry in the
// next algorithm pass) and any in-network aggregation along the report path
// must purge its pending entries.
type Deregister struct {
	Node    netsim.NodeID // the departing receiver's node
	Session int
}

func (d Deregister) String() string {
	return fmt.Sprintf("deregister node=%d s=%d", d.Node, d.Session)
}

// LossReport is a receiver's periodic feedback for one session over one
// measurement interval.
type LossReport struct {
	Node     netsim.NodeID
	Session  int
	Level    int      // subscription level during the interval
	LossRate float64  // fraction of expected packets missing, 0..1
	Bytes    int64    // bytes received during the interval
	Interval sim.Time // length of the measurement interval
	Sent     sim.Time // when the receiver emitted the report
}

// Rate returns the received bandwidth in bits per second over the interval.
func (r LossReport) Rate() float64 {
	if r.Interval <= 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / r.Interval.Seconds()
}

func (r LossReport) String() string {
	return fmt.Sprintf("report node=%d s=%d lvl=%d loss=%.3f bytes=%d", r.Node, r.Session, r.Level, r.LossRate, r.Bytes)
}

// Suggestion is the controller's prescribed subscription level for one
// receiver and session.
type Suggestion struct {
	Node    netsim.NodeID
	Session int
	Level   int
	Sent    sim.Time
}

func (s Suggestion) String() string {
	return fmt.Sprintf("suggest node=%d s=%d lvl=%d", s.Node, s.Session, s.Level)
}

// NewControlPacket wraps a payload in a literal (garbage-collected) unicast
// control packet from src to dst with the given wire size: the path of
// federation traffic and of tests. A Register, Deregister, LossReport or
// Suggestion passed by value travels as a pointer like the pooled ones,
// allocated together with its packet.
func NewControlPacket(src, dst netsim.NodeID, size int, now sim.Time, payload any) *netsim.Packet {
	hdr := netsim.Packet{
		Kind:    netsim.Control,
		Src:     src,
		Dst:     dst,
		Group:   netsim.NoGroup,
		Size:    size,
		Sent:    now,
		Payload: payload,
	}
	switch pl := payload.(type) {
	case Register:
		return literal(hdr, pl)
	case Deregister:
		return literal(hdr, pl)
	case LossReport:
		return literal(hdr, pl)
	case Suggestion:
		return literal(hdr, pl)
	}
	p := new(netsim.Packet) // not &hdr: hdr must stay on the stack for literal
	*p = hdr
	return p
}

// literal allocates a packet and the payload it points at as one object.
func literal[T any](hdr netsim.Packet, v T) *netsim.Packet {
	l := &struct {
		pkt netsim.Packet
		v   T
	}{hdr, v}
	l.pkt.Payload = &l.v
	return &l.pkt
}

// NewPooledPacket returns a pooled unicast control packet from src to dst
// with no payload yet. The caller sets Payload, sends, then calls Release.
func NewPooledPacket(net *netsim.Network, src, dst netsim.NodeID, size int, now sim.Time) *netsim.Packet {
	p := net.NewPacket()
	p.Kind = netsim.Control
	p.Src = src
	p.Dst = dst
	p.Group = netsim.NoGroup
	p.Size = size
	p.Sent = now
	return p
}

// body is a pooled packet's side-car: storage for the receiver-controller
// payloads (a packet carries one at a time), so none of them allocates.
type body struct {
	rep   LossReport
	sug   Suggestion
	reg   Register
	dereg Deregister
}

// Poison implements netsim.Sidecar: a node far outside any network and a
// NaN loss rate make a consumer that kept the pointer panic or fail.
func (b *body) Poison() {
	const junk = -1 << 40
	b.rep = LossReport{Node: junk, Session: junk, Level: junk, LossRate: math.NaN(), Bytes: junk, Interval: junk, Sent: junk}
	b.sug = Suggestion{Node: junk, Session: junk, Level: junk, Sent: junk}
	b.reg = Register{Node: junk, Session: junk, Level: junk}
	b.dereg = Deregister{Node: junk, Session: junk}
}

// bodies carves side-cars a chunk at a time. A side-car stays with its
// packet for good, so none is ever put back.
var bodies sim.FreeList[body]

// bodyOf returns p's storage, taken the first time p carries a payload.
func bodyOf(p *netsim.Packet) *body {
	b, _ := p.Sidecar().(*body)
	if b == nil {
		b = bodies.Get()
		p.SetSidecar(b)
	}
	return b
}

// NewLossReportPacket returns a pooled packet from src to dst carrying r as
// a *LossReport. Send it, then Release it. The report lives in the packet:
// consumers copy what they keep before their delivery callback returns.
func NewLossReportPacket(net *netsim.Network, src, dst netsim.NodeID, now sim.Time, r LossReport) *netsim.Packet {
	p := NewPooledPacket(net, src, dst, LossReportSize, now)
	b := bodyOf(p)
	b.rep = r
	p.Payload = &b.rep
	return p
}

// NewSuggestionPacket is NewLossReportPacket for a *Suggestion.
func NewSuggestionPacket(net *netsim.Network, src, dst netsim.NodeID, now sim.Time, s Suggestion) *netsim.Packet {
	p := NewPooledPacket(net, src, dst, SuggestionSize, now)
	b := bodyOf(p)
	b.sug = s
	p.Payload = &b.sug
	return p
}

// NewRegisterPacket is NewLossReportPacket for a *Register.
func NewRegisterPacket(net *netsim.Network, src, dst netsim.NodeID, now sim.Time, r Register) *netsim.Packet {
	p := NewPooledPacket(net, src, dst, RegisterSize, now)
	b := bodyOf(p)
	b.reg = r
	p.Payload = &b.reg
	return p
}

// NewDeregisterPacket is NewLossReportPacket for a *Deregister.
func NewDeregisterPacket(net *netsim.Network, src, dst netsim.NodeID, now sim.Time, d Deregister) *netsim.Packet {
	p := NewPooledPacket(net, src, dst, DeregisterSize, now)
	b := bodyOf(p)
	b.dereg = d
	p.Payload = &b.dereg
	return p
}
