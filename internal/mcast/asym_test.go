package mcast

import (
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// TestOneWayUplinkChildResolvesLazily pins the one-way uplink case: a
// member joins below a router it can reach over a ConnectAsym uplink only.
// The graft lands, so the router records the child, but with no link to
// carry traffic down it forwards nothing. Once ConnectAsym adds the
// downlink, the next packet reaches the member over it.
//
//	src ── r ──> leaf   (leaf -> r only, until the downlink is added)
func TestOneWayUplinkChildResolvesLazily(t *testing.T) {
	e := sim.NewEngine(1)
	n := netsim.New(e)
	src := n.AddNode("src")
	r := n.AddNode("r")
	leaf := n.AddNode("leaf")
	cfg := netsim.LinkConfig{Bandwidth: 10e6, Delay: 10 * sim.Millisecond}
	n.Connect(src, r, cfg)
	n.ConnectAsym(leaf, r, cfg)
	d := NewDomain(n)
	g := d.RegisterGroup(0, 1, src.ID)
	m := &memberRec{}
	d.Join(leaf.ID, g, m)
	e.RunUntil(sim.Second)

	if kids := d.ForwardingChildren(r.ID, g); len(kids) != 1 || kids[0] != leaf.ID {
		t.Fatalf("r's children = %v, want [leaf]", kids)
	}
	if !d.OnTree(src.ID, g) {
		t.Fatal("graft did not reach the source")
	}
	send := func(seq int64) {
		src.SendMulticastLocal(&netsim.Packet{
			Kind: netsim.Data, Src: src.ID, Dst: netsim.NoNode,
			Group: g, Session: 0, Layer: 1, Seq: seq, Size: 1000, Sent: e.Now(),
		})
	}
	send(1)
	e.RunUntil(2 * sim.Second)
	if len(m.got) != 0 {
		t.Fatalf("member got %d packets with no downlink, want 0", len(m.got))
	}
	if kids := d.ForwardingChildren(r.ID, g); len(kids) != 1 || kids[0] != leaf.ID {
		t.Fatalf("r's children after a send = %v, want [leaf] still", kids)
	}

	down := n.ConnectAsym(r, leaf, cfg)
	send(2)
	e.RunUntil(3 * sim.Second)
	if len(m.got) != 1 || m.got[0].Seq != 2 {
		t.Fatalf("member got %d packets after the downlink was added, want seq 2 only", len(m.got))
	}
	if down.Stats().Delivered != 1 {
		t.Errorf("downlink delivered %d packets, want 1", down.Stats().Delivered)
	}
	send(3)
	e.RunUntil(4 * sim.Second)
	if len(m.got) != 2 || m.got[1].Seq != 3 {
		t.Fatalf("member got %d packets, want seq 2 and 3", len(m.got))
	}
}
