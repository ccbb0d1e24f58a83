package mcast

import (
	"testing"
	"unsafe"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

type nullMember struct{}

func (nullMember) RecvMulticast(*netsim.Packet) {}

// buildStarDomain joins one member per (arm, group): the hub carries every
// group while each arm carries exactly one.
func buildStarDomain(t *testing.T, groups int) (*Domain, *netsim.Network) {
	t.Helper()
	e := sim.NewEngine(1)
	net := netsim.New(e)
	cfg := netsim.LinkConfig{Bandwidth: 1e6, Delay: sim.Millisecond}
	src := net.AddNode("src")
	d := NewDomain(net)
	for g := 0; g < groups; g++ {
		arm := net.AddNode("arm")
		net.Connect(src, arm, cfg)
		id := d.RegisterGroup(g, 1, src.ID)
		d.Join(arm.ID, id, nullMember{})
	}
	e.RunUntil(sim.Second)
	return d, net
}

func TestStateEntriesAtSourceHub(t *testing.T) {
	const groups = 64
	d, net := buildStarDomain(t, groups)
	stats := d.StateStats()
	// Source carries all groups; each arm exactly one.
	if want := 2 * groups; stats.Entries != want {
		t.Errorf("Entries = %d, want %d", stats.Entries, want)
	}
	for g := 0; g < groups; g++ {
		id := d.GroupOf(g, 1)
		if !d.OnTree(0, id) {
			t.Fatalf("source off tree for group %d", g)
		}
		if kids := d.ForwardingChildren(0, id); len(kids) != 1 {
			t.Fatalf("source children for group %d = %v, want one arm", g, kids)
		}
	}
	if stats.Nodes != net.NumNodes() {
		t.Errorf("Nodes = %d, want %d", stats.Nodes, net.NumNodes())
	}
}

func TestStateSparseLookupMisses(t *testing.T) {
	d, _ := buildStarDomain(t, 4)
	// Arm node 1 joined exactly one group; other group IDs must miss
	// cleanly (nil slots below its ID, past the end of its slice above).
	for g := netsim.GroupID(0); g < 4; g++ {
		st := d.lookup(1, g)
		if (st != nil) != d.OnTree(1, g) {
			t.Fatalf("lookup/OnTree disagree at node 1 group %d", g)
		}
	}
	if d.lookup(1, 99) != nil {
		t.Error("lookup hit for an unregistered group")
	}
	if d.lookup(netsim.NodeID(1000), 0) != nil {
		t.Error("lookup hit for an unknown node")
	}
}

func TestStateDenseContainerGrowsForNewGroups(t *testing.T) {
	const groups = 35
	d, net := buildStarDomain(t, groups)
	// The source's slice grew one group at a time as each tree reached it;
	// the last-registered group must have landed in the grown slice.
	src := netsim.NodeID(0)
	last := d.GroupOf(groups-1, 1)
	if !d.OnTree(src, last) {
		t.Fatal("last-registered group missing at the source")
	}
	if got := len(d.state[src]); got != groups {
		t.Errorf("source slice holds %d slots, want %d", got, groups)
	}
	if stats := d.StateStats(); stats.Nodes != net.NumNodes() {
		t.Errorf("Nodes = %d, want %d", stats.Nodes, net.NumNodes())
	}
}

// TestStateStatsHandCount sizes a 4-node tree by hand: src ─ r ─< a, b,
// with a and b joined to group 0 and b also to group 1. Bytes is the node
// table, each row's capacity (rowMin slots), each entry, and the capacity
// of each child table and member list; pooled arrays nobody holds are not
// counted.
func TestStateStatsHandCount(t *testing.T) {
	e := sim.NewEngine(1)
	net := netsim.New(e)
	cfg := netsim.LinkConfig{Bandwidth: 1e6, Delay: sim.Millisecond}
	src, r := net.AddNode("src"), net.AddNode("r")
	a, b := net.AddNode("a"), net.AddNode("b")
	net.Connect(src, r, cfg)
	net.Connect(r, a, cfg)
	net.Connect(r, b, cfg)
	d := NewDomain(net)
	g0, g1 := d.RegisterGroup(0, 0, src.ID), d.RegisterGroup(0, 1, src.ID)
	d.Join(a.ID, g0, nullMember{})
	d.Join(b.ID, g0, nullMember{})
	d.Join(b.ID, g1, nullMember{})
	e.RunUntil(sim.Second)

	var (
		slice = int(unsafe.Sizeof([]*nodeGroupState(nil))) // 24 on 64-bit
		ptr   = int(unsafe.Sizeof((*nodeGroupState)(nil))) // 8
		entry = int(unsafe.Sizeof(nodeGroupState{}))       // 64
		kid   = int(unsafe.Sizeof(child{}))                // 16
		mem   = int(unsafe.Sizeof(Member(nil)))            // 16
	)
	want := StateStats{
		Nodes:   4,
		Entries: 7, // src, r, a, b for group 0; src, r, b for group 1
		Bytes: 4*slice + // the node table
			4*rowMin*ptr + // one row per node
			7*entry +
			(1+2)*kid + (1+1)*kid + // group 0: src→r, r→a,b; group 1: src→r, r→b
			3*mem, // a and b in group 0, b in group 1
	}
	if got := d.StateStats(); got != want {
		t.Errorf("StateStats = %+v, hand count %+v", got, want)
	}
}
