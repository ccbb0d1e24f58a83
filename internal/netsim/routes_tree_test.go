package netsim

import (
	"fmt"
	"testing"

	"toposense/internal/sim"
)

var flatCfg = LinkConfig{Bandwidth: 1e6, Delay: sim.Millisecond}

// TestTreeRoutesDisconnected checks component handling: no route between
// trees of a forest, normal routes within each.
func TestTreeRoutesDisconnected(t *testing.T) {
	e := sim.NewEngine(1)
	net := New(e)
	a0, a1 := net.AddNode("a0"), net.AddNode("a1")
	b0, b1 := net.AddNode("b0"), net.AddNode("b1")
	net.Connect(a0, a1, flatCfg)
	net.Connect(b0, b1, flatCfg)
	net.ensureRoutes()
	if net.tree == nil {
		t.Fatal("tree mode not selected for a forest")
	}
	if got := net.NextHop(a0.ID, b1.ID); got != NoNode {
		t.Errorf("cross-component NextHop = %d, want NoNode", got)
	}
	if got := net.NextHop(a0.ID, a1.ID); got != a1.ID {
		t.Errorf("NextHop(a0,a1) = %d, want %d", got, a1.ID)
	}
	if got := net.NextHop(b1.ID, b0.ID); got != b0.ID {
		t.Errorf("NextHop(b1,b0) = %d, want %d", got, b0.ID)
	}
}

// TestTreeRoutesCycleFallsBack checks that a graph with a cycle rejects
// tree mode and routes through the dense tables.
func TestTreeRoutesCycleFallsBack(t *testing.T) {
	e := sim.NewEngine(1)
	net := New(e)
	var nodes []*Node
	for i := 0; i < 4; i++ {
		nodes = append(nodes, net.AddNode(fmt.Sprintf("n%d", i)))
	}
	for i := range nodes {
		net.Connect(nodes[i], nodes[(i+1)%4], flatCfg)
	}
	net.ensureRoutes()
	if net.tree != nil {
		t.Fatal("tree mode selected for a cycle")
	}
	if net.nextHop == nil {
		t.Fatal("dense tables not built on fallback")
	}
	if got := net.NextHop(nodes[0].ID, nodes[2].ID); got != nodes[1].ID {
		// Two equal paths; BFS tie-breaks toward the lower node ID.
		t.Errorf("NextHop(0,2) = %d, want %d", got, nodes[1].ID)
	}
}

// TestTreeRoutesAsymmetryFallsBack checks that a one-way link disqualifies
// tree mode (tree queries assume symmetric reachability).
func TestTreeRoutesAsymmetryFallsBack(t *testing.T) {
	e := sim.NewEngine(1)
	net := New(e)
	a, b, c := net.AddNode("a"), net.AddNode("b"), net.AddNode("c")
	net.Connect(a, b, flatCfg)
	net.ConnectAsym(b, c, flatCfg)
	net.ensureRoutes()
	if net.tree != nil {
		t.Fatal("tree mode selected despite an asymmetric link")
	}
}

// TestTreeRoutesFaultInjection checks that SetDown on a tree-routed
// network materializes dense tables, reroutes, and that SetUp restores
// the original next hops — with route-change listeners firing.
func TestTreeRoutesFaultInjection(t *testing.T) {
	e := sim.NewEngine(1)
	net := New(e)
	// src - mid - leaf plus a spare path src - alt - leaf would be a cycle;
	// keep it a tree and check unreachability instead.
	src, mid, leaf := net.AddNode("src"), net.AddNode("mid"), net.AddNode("leaf")
	down, _ := net.Connect(src, mid, flatCfg)
	net.Connect(mid, leaf, flatCfg)
	net.ensureRoutes()
	if net.tree == nil {
		t.Fatal("tree mode not selected")
	}
	var notified int
	net.OnRouteChange(func(ch []RouteChange) { notified += len(ch) })
	down.SetDown()
	down.Reverse().SetDown()
	if net.tree != nil || net.nextHop == nil {
		t.Fatal("fault injection did not switch to dense tables")
	}
	if got := net.NextHop(src.ID, leaf.ID); got != NoNode {
		t.Errorf("NextHop over failed link = %d, want NoNode", got)
	}
	if notified == 0 {
		t.Error("no route-change notifications on failure")
	}
	down.SetUp()
	down.Reverse().SetUp()
	if got := net.NextHop(src.ID, leaf.ID); got != mid.ID {
		t.Errorf("NextHop after repair = %d, want %d", got, mid.ID)
	}
	// The network stays dense after repair; tree mode would lose the
	// ability to diff the next failure.
	if !net.denseOnly {
		t.Error("denseOnly not pinned after fault injection")
	}
}

// TestTreeRoutesPathHelpers checks PathDelay/PathHops work through tree
// mode (they walk NextHop hop by hop).
func TestTreeRoutesPathHelpers(t *testing.T) {
	e := sim.NewEngine(1)
	net := New(e)
	a, b, c := net.AddNode("a"), net.AddNode("b"), net.AddNode("c")
	net.Connect(a, b, flatCfg)
	net.Connect(b, c, flatCfg)
	net.ensureRoutes()
	if net.tree == nil {
		t.Fatal("tree mode not selected")
	}
	if got := net.PathHops(a.ID, c.ID); got != 2 {
		t.Errorf("PathHops = %d, want 2", got)
	}
	if got := net.PathDelay(a.ID, c.ID); got != 2*sim.Millisecond {
		t.Errorf("PathDelay = %v, want 2ms", got)
	}
}
