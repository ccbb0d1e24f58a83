package mcast

import (
	"fmt"
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// countMember tallies delivered multicast packets.
type countMember struct{ got int64 }

func (m *countMember) RecvMulticast(p *netsim.Packet) { m.got++ }

// benchStar builds src ── r ──< N children, each child hosting one joined
// member, and settles the grafts so the tree is fully built before the
// timer starts. Links are fast and queues deep: nothing drops, every
// injected packet is replicated to every child.
func benchStar(b *testing.B, fanout int) (*sim.Engine, *netsim.Network, *Domain, *netsim.Node, []*countMember) {
	b.Helper()
	e := sim.NewEngine(1)
	net := netsim.New(e)
	d := NewDomain(net)
	cfg := netsim.LinkConfig{Bandwidth: 1e9, Delay: sim.Millisecond, QueueLimit: 4096}
	src := net.AddNode("src")
	r := net.AddNode("r")
	net.Connect(src, r, cfg)
	g := d.RegisterGroup(0, 1, src.ID)
	members := make([]*countMember, fanout)
	for i := 0; i < fanout; i++ {
		c := net.AddNode(fmt.Sprintf("c%d", i))
		net.Connect(r, c, cfg)
		members[i] = &countMember{}
		d.Join(c.ID, g, members[i])
	}
	e.Run() // let grafts propagate so forwarding state exists everywhere
	return e, net, d, src, members
}

// BenchmarkReplicationFanout measures the data path of the multicast layer:
// one pooled packet entering a router and being replicated to N downstream
// children. This is the per-packet per-hop cost the paper's layered model
// multiplies by every layer of every session; it must stay at 0 allocs/op.
func BenchmarkReplicationFanout(b *testing.B) {
	for _, fanout := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("children-%d", fanout), func(b *testing.B) {
			e, net, d, src, members := benchStar(b, fanout)
			g := d.GroupOf(0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			// Pace one packet per serialization slot from inside the
			// simulation so the source queue stays shallow and pooled
			// packets recycle while later ones are in flight.
			const gap = 8 * sim.Microsecond
			sent := 0
			var inject func()
			inject = func() {
				p := net.NewPacket()
				p.Kind = netsim.Data
				p.Src = src.ID
				p.Dst = netsim.NoNode
				p.Group = g
				p.Session = 0
				p.Layer = 1
				p.Seq = int64(sent)
				p.Size = 1000
				src.SendMulticastLocal(p)
				p.Release()
				sent++
				if sent < b.N {
					e.Schedule(gap, inject)
				}
			}
			e.Schedule(0, inject)
			e.Run()
			b.StopTimer()
			for i, m := range members {
				if m.got != int64(b.N) {
					b.Fatalf("member %d received %d packets, want %d", i, m.got, b.N)
				}
			}
			b.ReportMetric(float64(b.N*fanout)/b.Elapsed().Seconds(), "replications/s")
		})
	}
}

// BenchmarkJoinLeaveCycle measures tree maintenance on a warmed domain: a
// member behind an off-tree router joins (grafting two hops up to the
// source), leaves, re-joins inside the leave latency (cancelling the prune
// timer), leaves again and waits out the prune cascade. One op is one
// cycle; nothing on it may allocate.
func BenchmarkJoinLeaveCycle(b *testing.B) {
	e := sim.NewEngine(1)
	net := netsim.New(e)
	d := NewDomain(net)
	cfg := netsim.LinkConfig{Bandwidth: 1e9, Delay: sim.Millisecond, QueueLimit: 64}
	src := net.AddNode("src")
	r := net.AddNode("r")
	leaf := net.AddNode("leaf")
	net.Connect(src, r, cfg)
	net.Connect(r, leaf, cfg)
	g := d.RegisterGroup(0, 1, src.ID)
	m := &countMember{}
	cycle := func() {
		d.Join(leaf.ID, g, m)
		e.RunUntil(e.Now() + d.LeaveLatency/4)
		d.Leave(leaf.ID, g, m)
		e.RunUntil(e.Now() + d.LeaveLatency/4)
		d.Join(leaf.ID, g, m)
		d.Leave(leaf.ID, g, m)
		e.RunUntil(e.Now() + 2*d.LeaveLatency)
	}
	cycle() // forwarding entries, event slots and records
	grafts, prunes := d.Grafts, d.Prunes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.StopTimer()
	// Grafts: leaf and r on the join, leaf again on the re-join; prunes:
	// leaf and r at the end.
	if d.Grafts-grafts != 3*int64(b.N) || d.Prunes-prunes != 2*int64(b.N) {
		b.Fatalf("%d grafts and %d prunes over %d cycles, want 3 and 2 per cycle", d.Grafts-grafts, d.Prunes-prunes, b.N)
	}
	if d.OnTree(r.ID, g) {
		b.Fatal("router still on tree after final prune")
	}
}
