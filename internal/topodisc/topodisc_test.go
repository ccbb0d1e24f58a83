package topodisc

import (
	"testing"

	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// fixture topology:
//
//	src - r1 - r2 - leafA (layers 1..3)
//	       |    `-- leafB (layers 1..2)
//	     leafC (layer 1)
type fixture struct {
	e                   *sim.Engine
	n                   *netsim.Network
	d                   *mcast.Domain
	tool                *Tool
	src, r1, r2         *netsim.Node
	leafA, leafB, leafC *netsim.Node
	members             map[netsim.NodeID]*member
}

type member struct{}

func (m *member) RecvMulticast(p *netsim.Packet) {}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	e := sim.NewEngine(1)
	n := netsim.New(e)
	f := &fixture{e: e, n: n, members: map[netsim.NodeID]*member{}}
	f.src = n.AddNode("src")
	f.r1 = n.AddNode("r1")
	f.r2 = n.AddNode("r2")
	f.leafA = n.AddNode("leafA")
	f.leafB = n.AddNode("leafB")
	f.leafC = n.AddNode("leafC")
	cfg := netsim.LinkConfig{Bandwidth: 10e6, Delay: 10 * sim.Millisecond}
	n.Connect(f.src, f.r1, cfg)
	n.Connect(f.r1, f.r2, cfg)
	n.Connect(f.r2, f.leafA, cfg)
	n.Connect(f.r2, f.leafB, cfg)
	n.Connect(f.r1, f.leafC, cfg)
	f.d = mcast.NewDomain(n)
	for l := 1; l <= 6; l++ {
		f.d.RegisterGroup(0, l, f.src.ID)
	}
	f.tool = NewTool(n, f.d, []int{0})
	return f
}

func (f *fixture) join(node *netsim.Node, layers int) {
	m := f.members[node.ID]
	if m == nil {
		m = &member{}
		f.members[node.ID] = m
	}
	for l := 1; l <= layers; l++ {
		f.d.Join(node.ID, f.d.GroupOf(0, l), m)
	}
}

func (f *fixture) joinAll() {
	f.join(f.leafA, 3)
	f.join(f.leafB, 2)
	f.join(f.leafC, 1)
	f.e.RunUntil(200 * sim.Millisecond) // grafts settle
}

// rootOf returns s's root, or NoNode for an empty snapshot.
func rootOf(s *Snapshot) netsim.NodeID {
	if len(s.Node) == 0 {
		return netsim.NoNode
	}
	return s.Node[0]
}

// parentOf returns node n's parent in s, and false for the root or a node
// not in the tree.
func parentOf(s *Snapshot, n netsim.NodeID) (netsim.NodeID, bool) {
	for i, id := range s.Node {
		if id == n && s.Parent[i] >= 0 {
			return s.Node[s.Parent[i]], true
		}
	}
	return netsim.NoNode, false
}

// childrenOf returns node n's children in s, in walk order.
func childrenOf(s *Snapshot, n netsim.NodeID) []netsim.NodeID {
	for i, id := range s.Node {
		if id == n {
			return s.Node[s.KidStart[i]:s.KidStart[i+1]]
		}
	}
	return nil
}

// isReceiver reports whether node n is in s with a receiver.
func isReceiver(s *Snapshot, n netsim.NodeID) bool {
	for i, id := range s.Node {
		if id == n {
			return s.Receiver[i]
		}
	}
	return false
}

func TestSnapshotTreeShape(t *testing.T) {
	f := newFixture(t)
	f.joinAll()
	s := f.tool.SnapshotNow(0)
	if rootOf(s) != f.src.ID {
		t.Fatalf("root = %d", rootOf(s))
	}
	if err := s.Validate(); err != nil || s.Torn {
		t.Fatalf("walked tree invalid (torn %v): %v", s.Torn, err)
	}
	parent := func(n netsim.NodeID) netsim.NodeID { p, _ := parentOf(s, n); return p }
	if parent(f.leafA.ID) != f.r2.ID || parent(f.leafB.ID) != f.r2.ID {
		t.Errorf("leaf parents wrong: %v %v", s.Node, s.Parent)
	}
	if parent(f.r2.ID) != f.r1.ID || parent(f.r1.ID) != f.src.ID {
		t.Errorf("router parents wrong: %v %v", s.Node, s.Parent)
	}
	if parent(f.leafC.ID) != f.r1.ID {
		t.Errorf("leafC parent = %d", parent(f.leafC.ID))
	}
	kids := childrenOf(s, f.r1.ID)
	if len(kids) != 2 || kids[0] != f.r2.ID || kids[1] != f.leafC.ID {
		t.Errorf("r1 children = %v", kids)
	}
	nodes := s.Nodes()
	if len(nodes) != 6 {
		t.Errorf("Nodes = %v, want all 6", nodes)
	}
	leaves := 0
	for i := range s.Node {
		if s.KidStart[i] == s.KidStart[i+1] {
			leaves++
		}
	}
	if leaves != 3 {
		t.Errorf("%d leaves in %v", leaves, s.Node)
	}
	if s.Empty() {
		t.Error("non-empty tree reported Empty")
	}
}

func TestSnapshotReceivers(t *testing.T) {
	f := newFixture(t)
	f.joinAll()
	s := f.tool.SnapshotNow(0)
	for _, leaf := range []netsim.NodeID{f.leafA.ID, f.leafB.ID, f.leafC.ID} {
		if !isReceiver(s, leaf) {
			t.Errorf("leaf %d not marked receiver", leaf)
		}
	}
	if isReceiver(s, f.r1.ID) || isReceiver(s, f.src.ID) {
		t.Error("transit node marked receiver")
	}
}

func TestSnapshotEmptySession(t *testing.T) {
	f := newFixture(t)
	s := f.tool.SnapshotNow(0) // nobody joined
	if !s.Empty() {
		t.Errorf("snapshot not empty: %+v", s)
	}
	// Unregistered session is also empty with no root.
	s2 := f.tool.SnapshotNow(42)
	if !s2.Empty() || rootOf(s2) != netsim.NoNode {
		t.Errorf("unregistered session snapshot: %+v", s2)
	}
}

func TestDiscoverFreshness(t *testing.T) {
	f := newFixture(t)
	f.tool.Period = sim.Second
	f.tool.Start()
	f.e.RunUntil(500 * sim.Millisecond)
	f.joinAll() // joins at ~0.5-0.7s
	f.e.RunUntil(3 * sim.Second)
	s := f.tool.Discover(0)
	if s == nil || s.Empty() {
		t.Fatal("fresh Discover missed the joined tree")
	}
}

func TestDiscoverStaleness(t *testing.T) {
	f := newFixture(t)
	f.tool.Period = sim.Second
	f.tool.Staleness = 5 * sim.Second
	f.tool.Start()
	// Join at t=2s; with 5s staleness, the controller must not see the
	// tree until t>=7s.
	f.e.RunUntil(2 * sim.Second)
	f.joinAll()
	f.e.RunUntil(6 * sim.Second)
	if s := f.tool.Discover(0); s != nil && !s.Empty() {
		t.Fatalf("stale Discover at 6s already sees the 2s join (snapshot at %v)", s.At)
	}
	f.e.RunUntil(9 * sim.Second)
	s := f.tool.Discover(0)
	if s == nil || s.Empty() {
		t.Fatal("stale Discover at 9s still blind to the 2s join")
	}
	if age := f.e.Now() - s.At; age < f.tool.Staleness {
		t.Errorf("served snapshot only %v old, want >= %v", age, f.tool.Staleness)
	}
}

func TestDiscoverBeforeAnySnapshot(t *testing.T) {
	f := newFixture(t)
	f.tool.Staleness = 10 * sim.Second
	f.tool.Start()
	f.e.RunUntil(2 * sim.Second)
	if s := f.tool.Discover(0); s != nil {
		t.Errorf("Discover returned a snapshot younger than the staleness horizon: %v", s.At)
	}
}

func TestHistoryTrimmed(t *testing.T) {
	f := newFixture(t)
	f.tool.Period = 100 * sim.Millisecond
	f.tool.Staleness = sim.Second
	f.tool.Start()
	f.e.RunUntil(60 * sim.Second)
	if n := len(f.tool.history[0]); n > 40 {
		t.Errorf("history grew unbounded: %d snapshots", n)
	}
	// Discover still works after trimming.
	if s := f.tool.Discover(0); s == nil {
		t.Error("Discover broken after trim")
	}
}

func TestSnapshotReflectsLeave(t *testing.T) {
	f := newFixture(t)
	f.d.LeaveLatency = 100 * sim.Millisecond
	f.joinAll()
	// leafA leaves every layer: once its prune lands it is off the tree,
	// and r2 stays on it for leafB.
	m := f.members[f.leafA.ID]
	for l := 3; l >= 1; l-- {
		f.d.Leave(f.leafA.ID, f.d.GroupOf(0, l), m)
	}
	f.e.RunUntil(2 * sim.Second)
	s := f.tool.SnapshotNow(0)
	if _, on := parentOf(s, f.leafA.ID); on {
		t.Errorf("leafA still on the tree after leaving: %v", s.Node)
	}
	if p, _ := parentOf(s, f.leafB.ID); p != f.r2.ID {
		t.Errorf("leafB's parent = %d, want r2 %d", p, f.r2.ID)
	}
	if len(s.Node) != 5 {
		t.Errorf("nodes %v, want the 5 left", s.Node)
	}
}

func TestStartStopIdempotent(t *testing.T) {
	f := newFixture(t)
	f.tool.Start()
	f.tool.Start()
	f.e.RunUntil(3 * sim.Second)
	before := f.tool.Discoveries
	f.tool.Stop()
	f.tool.Stop()
	f.e.RunUntil(6 * sim.Second)
	if f.tool.Discoveries != before {
		t.Error("discoveries continued after Stop")
	}
	if got := f.tool.Sessions(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Sessions = %v", got)
	}
}

func TestScopedDiscovery(t *testing.T) {
	f := newFixture(t)
	f.joinAll()
	// Domain = the subtree under r2 (r2, leafA, leafB).
	f.tool.Scope = map[netsim.NodeID]bool{
		f.r2.ID: true, f.leafA.ID: true, f.leafB.ID: true,
	}
	s := f.tool.SnapshotNow(0)
	if rootOf(s) != f.r2.ID {
		t.Fatalf("scoped root = %d, want r2 %d", rootOf(s), f.r2.ID)
	}
	nodes := s.Nodes()
	if len(nodes) != 3 {
		t.Fatalf("scoped nodes = %v", nodes)
	}
	for _, n := range nodes {
		if !f.tool.Scope[n] {
			t.Errorf("unscoped node %d in snapshot", n)
		}
	}
	// leafC (outside the domain) is invisible.
	if isReceiver(s, f.leafC.ID) {
		t.Error("out-of-domain receiver visible")
	}
	if !isReceiver(s, f.leafA.ID) || !isReceiver(s, f.leafB.ID) {
		t.Error("in-domain receivers missing")
	}
}

func TestScopedDiscoverySessionNotInDomain(t *testing.T) {
	f := newFixture(t)
	// Only leafC joins; the domain is the r2 subtree, which the session
	// never enters.
	f.join(f.leafC, 2)
	f.e.RunUntil(200 * sim.Millisecond)
	f.tool.Scope = map[netsim.NodeID]bool{
		f.r2.ID: true, f.leafA.ID: true, f.leafB.ID: true,
	}
	s := f.tool.SnapshotNow(0)
	if !s.Empty() {
		t.Errorf("session outside the domain produced a tree: %+v", s)
	}
}

func TestScopedDiscoverySourceInside(t *testing.T) {
	f := newFixture(t)
	f.joinAll()
	// Scope covering everything including the source: behaves like global.
	f.tool.Scope = map[netsim.NodeID]bool{
		f.src.ID: true, f.r1.ID: true, f.r2.ID: true,
		f.leafA.ID: true, f.leafB.ID: true, f.leafC.ID: true,
	}
	s := f.tool.SnapshotNow(0)
	if rootOf(s) != f.src.ID || len(s.Nodes()) != 6 {
		t.Errorf("full-scope snapshot wrong: root %d, %d nodes", rootOf(s), len(s.Nodes()))
	}
}
