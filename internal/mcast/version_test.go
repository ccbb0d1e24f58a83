package mcast

import (
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// TestVersionBumpsWhereTheTreeChanges walks the five places a router's
// children or members change — Join, graft landing, Leave, prune landing,
// repair detach — on the diamond src-(x|y)-rx and checks that each moves the
// group's version by exactly the changes made, that another group's version
// holds still throughout, and that forwarding data moves nothing. Discovery
// re-walks a tree only when the version moved, so a missing bump is a stale
// topology served as fresh.
func TestVersionBumpsWhereTheTreeChanges(t *testing.T) {
	e := sim.NewEngine(1)
	n := netsim.New(e)
	src, x, y, rx := n.AddNode("src"), n.AddNode("x"), n.AddNode("y"), n.AddNode("rx")
	cfg := netsim.LinkConfig{Bandwidth: 10e6, Delay: 10 * sim.Millisecond}
	n.Connect(src, x, cfg)
	n.Connect(src, y, cfg)
	n.Connect(x, rx, cfg)
	n.Connect(y, rx, cfg)
	d := NewDomain(n)
	d.LeaveLatency = 100 * sim.Millisecond
	g := d.RegisterGroup(0, 1, src.ID)
	other := d.RegisterGroup(0, 2, src.ID)
	m := &memberRec{}

	steps := []struct {
		site  string
		do    func()
		bumps uint64
	}{
		{"Join", func() { d.Join(rx.ID, g, m) }, 1},
		{"duplicate Join", func() { d.Join(rx.ID, g, m) }, 0},
		{"graft landing at x", func() { e.RunUntil(e.Now() + 15*sim.Millisecond) }, 1},
		{"graft landing at src", func() { e.RunUntil(e.Now() + 10*sim.Millisecond) }, 1},
		{"data packet", func() {
			src.SendMulticastLocal(&netsim.Packet{
				Kind: netsim.Data, Src: src.ID, Dst: netsim.NoNode,
				Group: g, Session: 0, Layer: 1, Seq: 1, Size: 1000, Sent: e.Now(),
			})
			e.RunUntil(e.Now() + 50*sim.Millisecond)
			if len(m.got) != 1 {
				t.Fatalf("data packet not delivered: %d", len(m.got))
			}
		}, 0},
		// The x-rx cut moves rx's route to y: rx detaches from x (lands at x)
		// and grafts toward y (lands at y) in the same 10 ms; then x, idle,
		// prunes off src while y's own graft lands there.
		{"repair detach at x + graft landing at y", func() {
			failBoth(n, x.ID, rx.ID, true)
			e.RunUntil(e.Now() + 15*sim.Millisecond)
		}, 2},
		{"cascade prune + graft landing at src", func() { e.RunUntil(e.Now() + 10*sim.Millisecond) }, 2},
		{"Leave", func() { d.Leave(rx.ID, g, m) }, 1},
		{"Leave of a non-member", func() { d.Leave(rx.ID, g, m) }, 0},
		{"prune landing at y", func() { e.RunUntil(e.Now() + 115*sim.Millisecond) }, 1},
		{"prune landing at src", func() { e.RunUntil(e.Now() + 10*sim.Millisecond) }, 1},
		{"quiet", func() { e.RunUntil(e.Now() + sim.Second) }, 0},
	}
	for _, st := range steps {
		before := d.Version(g)
		st.do()
		if got := d.Version(g) - before; got != st.bumps {
			t.Errorf("%s: version moved by %d, want %d", st.site, got, st.bumps)
		}
		if d.Version(other) != 0 {
			t.Fatalf("%s: bumped the version of a group it did not touch", st.site)
		}
	}
	if d.OnTree(src.ID, g) || d.TreeCost() != 0 {
		t.Errorf("tree not torn down at the end: cost %d", d.TreeCost())
	}
}
