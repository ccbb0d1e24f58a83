package netsim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/sim"
	"toposense/internal/topology"
)

// isSymmetricForest decides, independently of buildTreeRoutes, whether every
// link has its reverse and the undirected graph has no cycle (union-find:
// an edge inside one component closes a cycle).
func isSymmetricForest(net *netsim.Network) bool {
	comp := make([]int, net.NumNodes())
	for i := range comp {
		comp[i] = i
	}
	find := func(v int) int {
		for comp[v] != v {
			comp[v] = comp[comp[v]]
			v = comp[v]
		}
		return v
	}
	for _, l := range net.Links() {
		if l.Reverse() == nil {
			return false
		}
		if l.From > l.To {
			continue // the pair was judged at its other direction
		}
		a, b := find(int(l.From)), find(int(l.To))
		if a == b {
			return false
		}
		comp[a] = b
	}
	return true
}

// randomTree grows a tree of n nodes: each new node attaches to a uniformly
// random earlier one.
func randomTree(n int, seed int64) *netsim.Network {
	rng := rand.New(rand.NewSource(seed))
	net := netsim.New(sim.NewEngine(seed))
	nodes := []*netsim.Node{net.AddNode("n0")}
	for i := 1; i < n; i++ {
		nodes = append(nodes, net.AddNode(fmt.Sprintf("n%d", i)))
		net.Connect(nodes[rng.Intn(i)], nodes[i], netsim.LinkConfig{Bandwidth: 1e6, Delay: sim.Millisecond})
	}
	return net
}

// TestTreeRoutesMatchDense walks the whole topology registry — every family
// at its defaults, paper Topologies A and B among them — and a batch of
// random trees. A symmetric forest must route through the Euler intervals
// and anything else must take the dense fallback; either way every
// (src, dst) NextHop must equal that of an identical twin pinned to the
// dense tables.
func TestTreeRoutesMatchDense(t *testing.T) {
	type routed struct {
		name  string
		build func() *netsim.Network
	}
	var cases []routed
	for _, g := range topology.Generators() {
		g := g
		cases = append(cases, routed{g.Name, func() *netsim.Network {
			return topology.MustGenerate(sim.NewEngine(1), g.New()).Net
		}})
	}
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		cases = append(cases, routed{fmt.Sprintf("random tree %d", seed), func() *netsim.Network { return randomTree(60, seed) }})
	}
	forests, meshes := 0, 0
	for _, c := range cases {
		net := c.build()
		forest := isSymmetricForest(net)
		if got := net.TreeRouted(); got != forest {
			t.Errorf("%s (%d nodes): tree-routed = %v, symmetric forest = %v", c.name, net.NumNodes(), got, forest)
			continue
		}
		if forest {
			forests++
		} else {
			meshes++
		}
		dense := c.build()
		dense.PinDense()
		if dense.TreeRouted() {
			t.Fatalf("%s: pinned twin still tree-routed", c.name)
		}
		num := net.NumNodes()
	pairs:
		for src := 0; src < num; src++ {
			for dst := 0; dst < num; dst++ {
				got := net.NextHop(netsim.NodeID(src), netsim.NodeID(dst))
				if want := dense.NextHop(netsim.NodeID(src), netsim.NodeID(dst)); got != want {
					t.Errorf("%s: NextHop(%d,%d) = %d, dense says %d", c.name, src, dst, got, want)
					break pairs
				}
			}
		}
	}
	if forests == 0 || meshes == 0 {
		t.Errorf("cases gave %d forests and %d non-forests; the test needs both sides", forests, meshes)
	}
}

// TestSetDownOnSmallForestPinsDense fails and repairs the shared link of the
// 34-node Topology B. The network starts in tree mode; the first SetDown must
// materialise the dense tables, every flip must report exactly the
// RouteChanges of a twin that routed densely from the start (what every
// network this size did before tree mode lost its size threshold), and
// repairing the link must not bring tree mode back.
func TestSetDownOnSmallForestPinsDense(t *testing.T) {
	build := func() (*netsim.Network, *netsim.Link, *[][]netsim.RouteChange) {
		_, cfg, err := topology.Parse("b,sessions=16")
		if err != nil {
			t.Fatal(err)
		}
		b := topology.MustGenerate(sim.NewEngine(1), cfg)
		var log [][]netsim.RouteChange
		b.Net.OnRouteChange(func(ch []netsim.RouteChange) {
			// The slice is only valid during the call: deep-copy it.
			cp := make([]netsim.RouteChange, len(ch))
			for i, c := range ch {
				cp[i] = netsim.RouteChange{Dst: c.Dst, Nodes: append([]netsim.NodeID(nil), c.Nodes...)}
			}
			log = append(log, cp)
		})
		return b.Net, b.Bottlenecks[0], &log
	}
	net, link, got := build()
	dense, dlink, want := build()
	dense.PinDense()
	if net.NumNodes() != 34 || !net.TreeRouted() || dense.TreeRouted() {
		t.Fatalf("%d nodes, tree-routed %v, twin tree-routed %v; want 34, true, false", net.NumNodes(), net.TreeRouted(), dense.TreeRouted())
	}
	for _, flip := range []func(*netsim.Link){(*netsim.Link).SetDown, (*netsim.Link).SetUp, (*netsim.Link).SetDown} {
		for _, l := range []*netsim.Link{link, link.Reverse(), dlink, dlink.Reverse()} {
			flip(l)
		}
		if net.TreeRouted() {
			t.Fatal("tree mode came back after fault injection")
		}
	}
	if len(*want) == 0 || !reflect.DeepEqual(*got, *want) {
		t.Errorf("route changes differ from the dense twin's:\n got %v\nwant %v", *got, *want)
	}
}
