package mcast

import (
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// fixture: src -- r1 -- r2 with two leaves under r2 and one under r1.
//
//	src - r1 - r2 - leafA
//	       |    `-- leafB
//	     leafC
type fixture struct {
	e                   *sim.Engine
	n                   *netsim.Network
	d                   *Domain
	src, r1, r2         *netsim.Node
	leafA, leafB, leafC *netsim.Node
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	e := sim.NewEngine(1)
	n := netsim.New(e)
	f := &fixture{e: e, n: n}
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
	f.d = NewDomain(n)
	return f
}

type memberRec struct {
	got []*netsim.Packet
}

func (m *memberRec) RecvMulticast(p *netsim.Packet) { m.got = append(m.got, p) }

func (f *fixture) send(g netsim.GroupID, seq int64) {
	s, l := f.d.SessionLayer(g)
	f.src.SendMulticastLocal(&netsim.Packet{
		Kind: netsim.Data, Src: f.src.ID, Dst: netsim.NoNode,
		Group: g, Session: s, Layer: l, Seq: seq, Size: 1000, Sent: f.e.Now(),
	})
}

func TestRegisterGroup(t *testing.T) {
	f := newFixture(t)
	g1 := f.d.RegisterGroup(0, 1, f.src.ID)
	g2 := f.d.RegisterGroup(0, 2, f.src.ID)
	if g1 == g2 {
		t.Fatal("distinct layers share a group")
	}
	if f.d.GroupOf(0, 1) != g1 || f.d.GroupOf(0, 2) != g2 {
		t.Fatal("GroupOf lookup broken")
	}
	if f.d.GroupOf(9, 9) != netsim.NoGroup {
		t.Fatal("missing group should be NoGroup")
	}
	if f.d.RegisterGroup(0, 1, f.src.ID) != g1 {
		t.Fatal("re-registration should return the same id")
	}
	if f.d.Source(g1) != f.src.ID {
		t.Fatal("Source lookup broken")
	}
	s, l := f.d.SessionLayer(g2)
	if s != 0 || l != 2 {
		t.Fatalf("SessionLayer = (%d,%d)", s, l)
	}
	if f.d.NumGroups() != 2 {
		t.Fatalf("NumGroups = %d", f.d.NumGroups())
	}
}

func TestRegisterConflictingSourcePanics(t *testing.T) {
	f := newFixture(t)
	f.d.RegisterGroup(0, 1, f.src.ID)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.d.RegisterGroup(0, 1, f.r1.ID)
}

func TestJoinBuildsTreeAndDelivers(t *testing.T) {
	f := newFixture(t)
	g := f.d.RegisterGroup(0, 1, f.src.ID)
	ma := &memberRec{}
	f.d.Join(f.leafA.ID, g, ma)
	// Graft needs 3 hops x 10ms to reach the source.
	f.e.RunUntil(100 * sim.Millisecond)
	if !f.d.OnTree(f.r1.ID, g) || !f.d.OnTree(f.r2.ID, g) {
		t.Fatal("graft did not build forwarding state")
	}
	f.send(g, 1)
	f.e.RunUntil(sim.Second)
	if len(ma.got) != 1 {
		t.Fatalf("member got %d packets, want 1", len(ma.got))
	}
}

func TestReplicationOnlyWhereMembers(t *testing.T) {
	f := newFixture(t)
	g := f.d.RegisterGroup(0, 1, f.src.ID)
	ma, mc := &memberRec{}, &memberRec{}
	f.d.Join(f.leafA.ID, g, ma)
	f.d.Join(f.leafC.ID, g, mc)
	f.e.RunUntil(100 * sim.Millisecond)
	f.send(g, 1)
	f.e.RunUntil(sim.Second)
	if len(ma.got) != 1 || len(mc.got) != 1 {
		t.Fatalf("got A=%d C=%d, want 1 each", len(ma.got), len(mc.got))
	}
	// leafB never joined: no traffic on r2->leafB.
	lb := f.r2.LinkTo(f.leafB.ID)
	if lb.Stats().Enqueued != 0 {
		t.Errorf("r2->leafB carried %d packets, want 0", lb.Stats().Enqueued)
	}
	// r1->r2 carries exactly one copy even with two branches downstream.
	l12 := f.r1.LinkTo(f.r2.ID)
	if l12.Stats().Enqueued != 1 {
		t.Errorf("r1->r2 carried %d copies, want 1", l12.Stats().Enqueued)
	}
}

func TestSharedTreeSingleCopyPerLink(t *testing.T) {
	f := newFixture(t)
	g := f.d.RegisterGroup(0, 1, f.src.ID)
	ma, mb := &memberRec{}, &memberRec{}
	f.d.Join(f.leafA.ID, g, ma)
	f.d.Join(f.leafB.ID, g, mb)
	f.e.RunUntil(100 * sim.Millisecond)
	for i := 0; i < 5; i++ {
		f.send(g, int64(i))
	}
	f.e.RunUntil(sim.Second)
	if len(ma.got) != 5 || len(mb.got) != 5 {
		t.Fatalf("A=%d B=%d, want 5 each", len(ma.got), len(mb.got))
	}
	if got := f.src.LinkTo(f.r1.ID).Stats().Enqueued; got != 5 {
		t.Errorf("src->r1 carried %d, want 5 (one copy per packet)", got)
	}
}

func TestDoubleJoinIsIdempotent(t *testing.T) {
	f := newFixture(t)
	g := f.d.RegisterGroup(0, 1, f.src.ID)
	ma := &memberRec{}
	f.d.Join(f.leafA.ID, g, ma)
	f.d.Join(f.leafA.ID, g, ma)
	f.e.RunUntil(100 * sim.Millisecond)
	f.send(g, 1)
	f.e.RunUntil(sim.Second)
	if len(ma.got) != 1 {
		t.Fatalf("duplicate join duplicated delivery: %d", len(ma.got))
	}
}

func TestLeaveLatencyKeepsTraffickFlowing(t *testing.T) {
	f := newFixture(t)
	f.d.LeaveLatency = 500 * sim.Millisecond
	g := f.d.RegisterGroup(0, 1, f.src.ID)
	ma := &memberRec{}
	f.d.Join(f.leafA.ID, g, ma)
	f.e.RunUntil(100 * sim.Millisecond)
	f.d.Leave(f.leafA.ID, g, ma)
	// Within the leave-latency window the tree still forwards to leafA's
	// node (the member itself is gone, so it receives nothing, but the
	// link keeps carrying traffic — that is the congestion hazard).
	f.send(g, 1)
	f.e.RunUntil(200 * sim.Millisecond)
	if got := f.r2.LinkTo(f.leafA.ID).Stats().Enqueued; got != 1 {
		t.Errorf("link to leafA carried %d during leave window, want 1", got)
	}
	if len(ma.got) != 0 {
		t.Errorf("departed member received %d packets", len(ma.got))
	}
	// After the window + prune propagation, the branch is gone.
	f.e.RunUntil(2 * sim.Second)
	f.send(g, 2)
	f.e.RunUntil(3 * sim.Second)
	if got := f.r2.LinkTo(f.leafA.ID).Stats().Enqueued; got != 1 {
		t.Errorf("link to leafA carried %d after prune, want still 1", got)
	}
	if f.d.OnTree(f.r2.ID, g) || f.d.OnTree(f.r1.ID, g) {
		t.Error("tree not fully pruned after sole member left")
	}
}

func TestRejoinDuringLeaveWindowCancelsPrune(t *testing.T) {
	f := newFixture(t)
	f.d.LeaveLatency = 500 * sim.Millisecond
	g := f.d.RegisterGroup(0, 1, f.src.ID)
	ma := &memberRec{}
	f.d.Join(f.leafA.ID, g, ma)
	f.e.RunUntil(100 * sim.Millisecond)
	f.d.Leave(f.leafA.ID, g, ma)
	f.e.RunUntil(300 * sim.Millisecond) // inside the window
	f.d.Join(f.leafA.ID, g, ma)
	f.e.RunUntil(2 * sim.Second) // past where the prune would have fired
	f.send(g, 1)
	f.e.RunUntil(3 * sim.Second)
	if len(ma.got) != 1 {
		t.Fatalf("re-joined member got %d packets, want 1", len(ma.got))
	}
}

func TestLeaveOnlyPrunesEmptyBranch(t *testing.T) {
	f := newFixture(t)
	f.d.LeaveLatency = 100 * sim.Millisecond
	g := f.d.RegisterGroup(0, 1, f.src.ID)
	ma, mb := &memberRec{}, &memberRec{}
	f.d.Join(f.leafA.ID, g, ma)
	f.d.Join(f.leafB.ID, g, mb)
	f.e.RunUntil(200 * sim.Millisecond)
	f.d.Leave(f.leafA.ID, g, ma)
	f.e.RunUntil(sim.Second) // prune done
	f.send(g, 1)
	f.e.RunUntil(2 * sim.Second)
	if len(mb.got) != 1 {
		t.Fatalf("remaining member got %d packets, want 1", len(mb.got))
	}
	if f.d.OnTree(f.leafA.ID, g) {
		t.Error("pruned leaf still on tree")
	}
	if !f.d.OnTree(f.r2.ID, g) {
		t.Error("r2 wrongly pruned while leafB is a member")
	}
}

func TestLeaveUnknownMemberIsSafe(t *testing.T) {
	f := newFixture(t)
	g := f.d.RegisterGroup(0, 1, f.src.ID)
	f.d.Leave(f.leafA.ID, g, &memberRec{}) // never joined: no-op
	f.e.Run()
}

func TestForwardingChildrenSnapshot(t *testing.T) {
	f := newFixture(t)
	g := f.d.RegisterGroup(0, 1, f.src.ID)
	f.d.Join(f.leafA.ID, g, &memberRec{})
	f.d.Join(f.leafB.ID, g, &memberRec{})
	f.d.Join(f.leafC.ID, g, &memberRec{})
	f.e.RunUntil(200 * sim.Millisecond)
	kids := f.d.ForwardingChildren(f.r2.ID, g)
	if len(kids) != 2 || kids[0] != f.leafA.ID || kids[1] != f.leafB.ID {
		t.Fatalf("r2 children = %v", kids)
	}
	kids = f.d.ForwardingChildren(f.r1.ID, g)
	if len(kids) != 2 || kids[0] != f.r2.ID || kids[1] != f.leafC.ID {
		t.Fatalf("r1 children = %v", kids)
	}
	if got := f.d.ForwardingChildren(f.leafB.ID, g); len(got) != 0 {
		t.Fatalf("leaf has children %v", got)
	}
	if !f.d.HasLocalMembers(f.leafA.ID, g) {
		t.Error("HasLocalMembers(leafA) = false")
	}
	if f.d.HasLocalMembers(f.r1.ID, g) {
		t.Error("HasLocalMembers(r1) = true")
	}
}

func TestGraftPruneCounters(t *testing.T) {
	f := newFixture(t)
	f.d.LeaveLatency = 50 * sim.Millisecond
	g := f.d.RegisterGroup(0, 1, f.src.ID)
	ma := &memberRec{}
	f.d.Join(f.leafA.ID, g, ma)
	f.e.RunUntil(200 * sim.Millisecond)
	if f.d.Grafts != 3 { // leafA->r2, r2->r1, r1->src
		t.Errorf("Grafts = %d, want 3", f.d.Grafts)
	}
	f.d.Leave(f.leafA.ID, g, ma)
	f.e.RunUntil(2 * sim.Second)
	if f.d.Prunes != 3 {
		t.Errorf("Prunes = %d, want 3", f.d.Prunes)
	}
}

func TestSourceLocalMember(t *testing.T) {
	// A member attached at the source node itself gets packets with no tree.
	f := newFixture(t)
	g := f.d.RegisterGroup(0, 1, f.src.ID)
	m := &memberRec{}
	f.d.Join(f.src.ID, g, m)
	f.e.RunUntil(100 * sim.Millisecond)
	f.send(g, 1)
	f.e.Run()
	if len(m.got) != 1 {
		t.Fatalf("source-local member got %d", len(m.got))
	}
}

func TestMulticastLossOnCongestedLink(t *testing.T) {
	// Saturate the narrow r2->leafA link: the shared upstream still
	// delivers everything to leafC via r1.
	e := sim.NewEngine(1)
	n := netsim.New(e)
	src := n.AddNode("src")
	r1 := n.AddNode("r1")
	la := n.AddNode("leafA")
	lc := n.AddNode("leafC")
	fast := netsim.LinkConfig{Bandwidth: 10e6, Delay: 10 * sim.Millisecond}
	slow := netsim.LinkConfig{Bandwidth: 64e3, Delay: 10 * sim.Millisecond, QueueLimit: 4}
	n.Connect(src, r1, fast)
	n.Connect(r1, la, slow)
	n.Connect(r1, lc, fast)
	d := NewDomain(n)
	g := d.RegisterGroup(0, 1, src.ID)
	ma, mc := &memberRec{}, &memberRec{}
	d.Join(la.ID, g, ma)
	d.Join(lc.ID, g, mc)
	e.RunUntil(100 * sim.Millisecond)

	const pkts = 100
	for i := 0; i < pkts; i++ {
		i := i
		e.Schedule(sim.Time(i)*10*sim.Millisecond, func() {
			src.SendMulticastLocal(&netsim.Packet{
				Kind: netsim.Data, Dst: netsim.NoNode, Group: g,
				Session: 0, Layer: 1, Seq: int64(i), Size: 1000, Sent: e.Now(),
			})
		})
	}
	e.Run()
	if len(mc.got) != pkts {
		t.Errorf("fast branch lost packets: %d/%d", len(mc.got), pkts)
	}
	if len(ma.got) >= pkts {
		t.Errorf("slow branch lost nothing under 12x overload")
	}
	if drops := r1.LinkTo(la.ID).Stats().Dropped; drops == 0 {
		t.Error("no drops recorded on the bottleneck")
	}
}

func TestPacketToUnjoinedGroupVanishes(t *testing.T) {
	f := newFixture(t)
	g := f.d.RegisterGroup(0, 1, f.src.ID)
	f.send(g, 1) // nobody joined
	f.e.Run()
	if got := f.src.LinkTo(f.r1.ID).Stats().Enqueued; got != 0 {
		t.Errorf("packet forwarded to empty tree: %d", got)
	}
}

// The OnSourceReached hook runs exactly when the source node's entry goes
// from inactive to active: a graft landing there, or a Join at the source
// node. A second branch grafting onto a tree that already reaches the
// source, a second member, and a prune do not run it.
func TestOnSourceReached(t *testing.T) {
	f := newFixture(t)
	g := f.d.RegisterGroup(0, 1, f.src.ID)
	var at []sim.Time
	f.d.OnSourceReached(g, func() { at = append(at, f.e.Now()) })
	a, b, c := &memberRec{}, &memberRec{}, &memberRec{}

	f.d.Join(f.leafA.ID, g, a) // grafts leafA -> r2 -> r1 -> src: lands at 30 ms
	f.e.RunUntil(sim.Second)
	f.d.Join(f.leafC.ID, g, b) // r1 is on the tree already
	f.d.Join(f.leafB.ID, g, c)
	f.e.RunUntil(2 * sim.Second)
	if len(at) != 1 || at[0] != 30*sim.Millisecond {
		t.Fatalf("hook ran at %v, want once at 30ms", at)
	}
	for _, m := range []struct {
		n *netsim.Node
		m Member
	}{{f.leafA, a}, {f.leafB, c}, {f.leafC, b}} {
		f.d.Leave(m.n.ID, g, m.m)
	}
	f.e.RunUntil(5 * sim.Second) // leave latency, then the prune cascade
	if f.d.OnTree(f.src.ID, g) || len(at) != 1 {
		t.Fatalf("after the prunes: source on tree %v, hook ran %d times", f.d.OnTree(f.src.ID, g), len(at))
	}
	src := &memberRec{}
	f.d.Join(f.src.ID, g, src)
	f.d.Join(f.src.ID, g, &memberRec{}) // a second member: already active
	if len(at) != 2 || at[1] != 5*sim.Second {
		t.Fatalf("hook ran at %v, want a second time at 5s for the Join at the source node", at)
	}
}
