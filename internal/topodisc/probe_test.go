package topodisc

import (
	"reflect"
	"testing"

	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/sim"
)

func TestProbeDiscoveryMatchesOracleWhenQuiet(t *testing.T) {
	f := newFixture(t)
	f.joinAll()
	oracle := f.tool.SnapshotNow(0)

	f.tool.ProbeMode = true
	f.tool.Period = sim.Second
	f.tool.Start()
	// One period plus the longest trace (3 hops x 10 ms, both ways).
	f.e.RunUntil(2 * sim.Second)
	got := f.tool.Discover(0)
	if got == nil || got.Empty() {
		t.Fatal("probe discovery produced nothing")
	}
	// Quiet traces see the tree the walk sees, laid out the same way:
	// siblings in ID order.
	if !reflect.DeepEqual(got.Topology, oracle.Topology) {
		t.Errorf("probe tree %+v, oracle %+v", got.Topology, oracle.Topology)
	}
	if f.tool.ProbePackets == 0 {
		t.Error("no probe packets counted")
	}
}

func TestProbeDiscoveryTakesTime(t *testing.T) {
	f := newFixture(t)
	f.joinAll()
	f.tool.ProbeMode = true
	f.tool.Period = sim.Second
	f.tool.Start()
	// The first snapshot is initiated at t=0 (Start) but completes only
	// after the traces walk their hops; its At stamp reflects that.
	f.e.RunUntil(500 * sim.Millisecond)
	s := f.tool.Discover(0)
	if s == nil || s.Empty() {
		t.Fatal("no snapshot after traces completed")
	}
	if s.At == 0 {
		t.Error("probe snapshot claims to be instantaneous")
	}
	// leafA is 3 hops from the source at 10 ms per hop.
	if s.At < 30*sim.Millisecond {
		t.Errorf("snapshot completed impossibly fast: %v", s.At)
	}
}

func TestProbeDiscoveryEmptySession(t *testing.T) {
	f := newFixture(t)
	f.tool.ProbeMode = true
	f.tool.Period = sim.Second
	f.tool.Start()
	f.e.RunUntil(2 * sim.Second)
	if s := f.tool.Discover(0); s != nil && !s.Empty() {
		t.Errorf("probe snapshot of an empty session: %+v", s)
	}
	// Unregistered sessions are also safe.
	done := false
	f.tool.probeSnapshot(42, func(s *Snapshot) { done = !s.Empty() })
	if done {
		t.Error("unregistered session produced a tree")
	}
}

func TestProbeDiscoveryScoped(t *testing.T) {
	f := newFixture(t)
	f.joinAll()
	f.tool.ProbeMode = true
	f.tool.Scope = map[netsim.NodeID]bool{
		f.r2.ID: true, f.leafA.ID: true, f.leafB.ID: true,
	}
	f.tool.Period = sim.Second
	f.tool.Start()
	f.e.RunUntil(2 * sim.Second)
	s := f.tool.Discover(0)
	if s == nil || s.Empty() {
		t.Fatal("scoped probe discovery produced nothing")
	}
	if rootOf(s) != f.r2.ID {
		t.Errorf("scoped probe root = %d, want r2 %d", rootOf(s), f.r2.ID)
	}
	for _, n := range s.Nodes() {
		if !f.tool.Scope[n] {
			t.Errorf("unscoped node %d traced", n)
		}
	}
}

func TestProbeDiscoveryProbeCountNearLinear(t *testing.T) {
	// Traces share tails: probe packets should grow roughly linearly with
	// receivers, not quadratically (paper: control traffic linear in
	// receivers).
	count := func(receivers int) int64 {
		e := sim.NewEngine(1)
		n := netsim.New(e)
		src := n.AddNode("src")
		mid := n.AddNode("mid")
		cfg := netsim.LinkConfig{Bandwidth: 10e6, Delay: 10 * sim.Millisecond}
		n.Connect(src, mid, cfg)
		d := newDomainWithGroups(n, src)
		var leaves []*netsim.Node
		for i := 0; i < receivers; i++ {
			leaf := n.AddNode("leaf")
			n.Connect(mid, leaf, cfg)
			leaves = append(leaves, leaf)
		}
		m := &member{}
		for _, leaf := range leaves {
			d.Join(leaf.ID, d.GroupOf(0, 1), m)
		}
		e.RunUntil(100 * sim.Millisecond)
		tool := NewTool(n, d, []int{0})
		tool.ProbeMode = true
		tool.Period = sim.Second
		tool.Start()
		e.RunUntil(500 * sim.Millisecond)
		return tool.ProbePackets
	}
	c4, c16 := count(4), count(16)
	if c16 > 6*c4 {
		t.Errorf("probe packets grew superlinearly: %d receivers -> %d, %d receivers -> %d", 4, c4, 16, c16)
	}
}

// newDomainWithGroups builds a domain with the 6 standard groups rooted at
// src, shared by probe tests needing custom topologies.
func newDomainWithGroups(n *netsim.Network, src *netsim.Node) *mcast.Domain {
	d := mcast.NewDomain(n)
	for l := 1; l <= 6; l++ {
		d.RegisterGroup(0, l, src.ID)
	}
	return d
}
