package mcast

import (
	"testing"

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
