// The large-scale generator families behind the fig_scale study: star,
// ring-with-chords mesh, deep k-ary tree, and linear chains — the classic
// parameterized shapes SDN testbeds generate (star / mesh / tree / linear).
// Each builds a single-session topology with the source as controller, the
// constrained links recorded as Bottlenecks, and per-receiver optimal
// levels derived from the min capacity along the path, so every family
// plugs into the same experiments and fault-injection machinery as the
// paper's canonical topologies.
//
// All four are deterministic per (config, seed): nodes are created in
// nested loops in a fixed order, and any capacity jitter comes from a
// seeded generator.
package topology

import (
	"math"
	"math/rand"

	"toposense/internal/netsim"
	"toposense/internal/sim"
	"toposense/internal/source"
)

// StarConfig parameterizes a star: the source feeds a hub from which Arms
// access links (the bottlenecks) fan out, each ending in a gateway with
// ReceiversPerArm receivers. With Jitter > 0 the arm bandwidths spread
// ±Jitter around Bandwidth, giving a wide flat field of heterogeneous
// constraints — 10^5 receivers is arms=1000, rxarm=100.
type StarConfig struct {
	Arms            int     // access arms off the hub
	ReceiversPerArm int     // receivers per arm gateway
	Bandwidth       float64 // nominal arm bandwidth in bits/s
	Jitter          float64 // arm bandwidth spread as a fraction
	Seed            int64   // jitter seed
	Delay           sim.Time
	QueueLimit      int
	Layers          int
}

func (c *StarConfig) keys() []key {
	return append([]key{
		row(&c.Arms, "arms", 8, "access arms off the hub", counts),
		row(&c.ReceiversPerArm, "rxarm", 4, "receivers per arm", counts),
		row(&c.Bandwidth, "bw", 500e3, "nominal arm bandwidth", bitrates),
		row(&c.Jitter, "jitter", 0, "arm bandwidth spread fraction", fractions),
		row(&c.Seed, "seed", 0, "jitter seed", seeds),
	}, linkKeys(&c.Delay, &c.QueueLimit, &c.Layers, DefaultDelay, "drop-tail")...)
}

func (c *StarConfig) generate(e sim.Scheduler) *Build {
	rng := jitterRand(c.Jitter, c.Seed)
	n := netsim.New(e)
	var nm names
	rates := source.Rates(c.Layers)
	fat := netsim.LinkConfig{Bandwidth: FatBandwidth, Delay: c.Delay, QueueLimit: c.QueueLimit}
	src := n.AddNode("src")
	hub := n.AddNode("hub")
	n.Connect(src, hub, fat)
	b := &Build{
		Net:        n,
		Sources:    []*netsim.Node{src},
		Controller: src,
		Receivers:  [][]*netsim.Node{nil},
		Optimal:    [][]int{nil},
		// Partition cut: src and hub in domain 0, each arm (gateway plus
		// its receivers) its own domain behind the hub-gateway link.
		Domains: []int{0, 0},
	}
	for a := 0; a < c.Arms; a++ {
		bw := c.Bandwidth
		if c.Jitter > 0 {
			bw *= 1 - c.Jitter + 2*c.Jitter*rng.Float64()
		}
		gw := n.AddNode(nm.s("arm").d(a).end())
		b.Domains = append(b.Domains, a+1)
		down, _ := n.Connect(hub, gw, netsim.LinkConfig{Bandwidth: bw, Delay: c.Delay, QueueLimit: c.QueueLimit})
		b.Bottlenecks = append(b.Bottlenecks, down)
		opt := source.LevelForBandwidth(rates, bw)
		for i := 0; i < c.ReceiversPerArm; i++ {
			rx := n.AddNode(nm.s("arm").d(a).s("-rx").d(i).end())
			b.Domains = append(b.Domains, a+1)
			n.Connect(gw, rx, fat)
			b.Receivers[0] = append(b.Receivers[0], rx)
			b.Optimal[0] = append(b.Optimal[0], opt)
		}
	}
	return b
}

// jitterRand returns the seeded generator a family draws its capacity
// jitter from, or nil when there is none to draw: seeding one costs more
// than building a small topology.
func jitterRand(jitter float64, seed int64) *rand.Rand {
	if jitter <= 0 {
		return nil
	}
	return rand.New(rand.NewSource(seed))
}

// MeshConfig parameterizes a ring of routers with periodic cross-chords —
// the classic ring+cross mesh. The source feeds ring router 0; every ring
// router serves a gateway over an access link (the bottleneck) with
// ReceiversPerRouter receivers behind it. The chords create route
// diversity: this is the family with cycles, so it exercises the dense BFS
// routing (and its tie-breaks) rather than the tree fast path, and its
// scale ceiling is the O(N²) routing table, not the forwarding state.
type MeshConfig struct {
	Routers            int      // ring routers
	CrossEvery         int      // a chord to the antipodal router every this many ring hops
	ReceiversPerRouter int      // receivers behind each ring router
	Access             float64  // access-link bandwidth in bits/s
	Ring               float64  // ring and chord bandwidth
	Delay              sim.Time // short by default: paths cross many ring hops
	QueueLimit         int
	Layers             int
}

func (c *MeshConfig) keys() []key {
	return append([]key{
		row(&c.Routers, "routers", 8, "ring routers", ints(3, math.MaxInt)),
		row(&c.CrossEvery, "cross", 4, "chord to the antipode every this many ring hops", counts),
		row(&c.ReceiversPerRouter, "rxrouter", 2, "receivers behind each ring router", counts),
		row(&c.Access, "access", 500e3, "access-link bandwidth", bitrates),
		row(&c.Ring, "ring", FatBandwidth, "ring and chord bandwidth", bitrates),
	}, linkKeys(&c.Delay, &c.QueueLimit, &c.Layers, 20*sim.Millisecond, "drop-tail")...)
}

func (c *MeshConfig) generate(e sim.Scheduler) *Build {
	n := netsim.New(e)
	var nm names
	rates := source.Rates(c.Layers)
	ring := netsim.LinkConfig{Bandwidth: c.Ring, Delay: c.Delay, QueueLimit: c.QueueLimit}
	fat := netsim.LinkConfig{Bandwidth: FatBandwidth, Delay: c.Delay, QueueLimit: c.QueueLimit}
	src := n.AddNode("src")
	routers := make([]*netsim.Node, c.Routers)
	for i := range routers {
		routers[i] = n.AddNode(nm.s("m").d(i).end())
	}
	n.Connect(src, routers[0], ring)
	for i := range routers {
		n.Connect(routers[i], routers[(i+1)%c.Routers], ring)
	}
	// Chords to the antipodal router, every CrossEvery positions around the
	// first half of the ring (the second half would duplicate them).
	for i := 0; i < c.Routers/2; i += c.CrossEvery {
		j := i + c.Routers/2
		if j != (i+1)%c.Routers && i != (j+1)%c.Routers {
			n.Connect(routers[i], routers[j], ring)
		}
	}
	b := &Build{
		Net:        n,
		Sources:    []*netsim.Node{src},
		Controller: src,
		Receivers:  [][]*netsim.Node{nil},
		Optimal:    [][]int{nil},
	}
	minBW := c.Access
	if c.Ring < minBW {
		minBW = c.Ring
	}
	opt := source.LevelForBandwidth(rates, minBW)
	for i, r := range routers {
		gw := n.AddNode(nm.s("m").d(i).s("-gw").end())
		down, _ := n.Connect(r, gw, netsim.LinkConfig{Bandwidth: c.Access, Delay: c.Delay, QueueLimit: c.QueueLimit})
		b.Bottlenecks = append(b.Bottlenecks, down)
		for k := 0; k < c.ReceiversPerRouter; k++ {
			rx := n.AddNode(nm.s("m").d(i).s("-rx").d(k).end())
			n.Connect(gw, rx, fat)
			b.Receivers[0] = append(b.Receivers[0], rx)
			b.Optimal[0] = append(b.Optimal[0], opt)
		}
	}
	return b
}

// TreeConfig parameterizes a deep k-ary tree rooted at the source: Depth
// interior levels of Branch children each, with the deepest-tier links (the
// last hop into each leaf gateway) at Leaf bandwidth — the shared
// bottlenecks — and everything above at Backbone. ReceiversPerLeaf
// receivers hang off each leaf gateway over fat links. This is the
// fig_scale workhorse: depth=4, branch=10, rxleaf=10 is 10^5 receivers
// behind 11 111 interior routers, all routed by the O(N) tree tables.
type TreeConfig struct {
	Depth            int      // interior levels below the root
	Branch           int      // children per interior node
	ReceiversPerLeaf int      // receivers per deepest-tier gateway
	Backbone         float64  // interior link bandwidth
	Leaf             float64  // deepest-tier link bandwidth (the bottleneck)
	Jitter           float64  // leaf bandwidth spread as a fraction
	Seed             int64    // jitter seed
	Delay            sim.Time // short by default: deep paths still converse in sub-second RTTs
	QueueLimit       int
	Layers           int
}

func (c *TreeConfig) keys() []key {
	return append([]key{
		row(&c.Depth, "depth", 3, "interior levels below the root", counts),
		row(&c.Branch, "branch", 4, "children per interior node", counts),
		row(&c.ReceiversPerLeaf, "rxleaf", 2, "receivers per leaf gateway", counts),
		row(&c.Backbone, "backbone", FatBandwidth, "interior link bandwidth", bitrates),
		row(&c.Leaf, "leaf", 500e3, "deepest-tier link bandwidth", bitrates),
		row(&c.Jitter, "jitter", 0, "leaf bandwidth spread fraction", fractions),
		row(&c.Seed, "seed", 0, "jitter seed", seeds),
	}, linkKeys(&c.Delay, &c.QueueLimit, &c.Layers, 50*sim.Millisecond, "drop-tail")...)
}

func (c *TreeConfig) generate(e sim.Scheduler) *Build {
	rng := jitterRand(c.Jitter, c.Seed)
	n := netsim.New(e)
	var nm names
	rates := source.Rates(c.Layers)
	fat := netsim.LinkConfig{Bandwidth: FatBandwidth, Delay: c.Delay, QueueLimit: c.QueueLimit}
	src := n.AddNode("src")
	b := &Build{
		Net:        n,
		Sources:    []*netsim.Node{src},
		Controller: src,
		Receivers:  [][]*netsim.Node{nil},
		Optimal:    [][]int{nil},
	}
	// Partition cut: the source alone is domain 0; each root-child
	// subtree (a level-1 node with everything below it) is one domain, so
	// the only boundary links are the root's downlinks.
	b.Domains = []int{0}
	frontier := []*netsim.Node{src}
	frontierDom := []int{0}
	for level := 1; level <= c.Depth; level++ {
		leafTier := level == c.Depth
		next := make([]*netsim.Node, 0, len(frontier)*c.Branch)
		nextDom := make([]int, 0, cap(next))
		for pi, parent := range frontier {
			for k := 0; k < c.Branch; k++ {
				child := n.AddNode(nm.s("k").d(level).s("-").d(len(next)).end())
				dom := frontierDom[pi]
				if level == 1 {
					dom = k + 1
				}
				b.Domains = append(b.Domains, dom)
				bw := c.Backbone
				if leafTier {
					bw = c.Leaf
					if c.Jitter > 0 {
						bw *= 1 - c.Jitter + 2*c.Jitter*rng.Float64()
					}
				}
				down, _ := n.Connect(parent, child, netsim.LinkConfig{
					Bandwidth: bw, Delay: c.Delay, QueueLimit: c.QueueLimit,
				})
				if leafTier {
					b.Bottlenecks = append(b.Bottlenecks, down)
					opt := source.LevelForBandwidth(rates, bw)
					if c.Backbone < bw {
						opt = source.LevelForBandwidth(rates, c.Backbone)
					}
					for i := 0; i < c.ReceiversPerLeaf; i++ {
						rx := n.AddNode(nm.s(child.Name).s("-rx").d(i).end())
						b.Domains = append(b.Domains, dom)
						n.Connect(child, rx, fat)
						b.Receivers[0] = append(b.Receivers[0], rx)
						b.Optimal[0] = append(b.Optimal[0], opt)
					}
				}
				next = append(next, child)
				nextDom = append(nextDom, dom)
			}
		}
		frontier, frontierDom = next, nextDom
	}
	return b
}

// LinearConfig parameterizes parallel chains: the source feeds Chains
// independent linear chains of Length routers connected by Bandwidth links
// (each chain's first hop is recorded as its bottleneck — every chain link
// has the same capacity, and the multicast stream crosses each exactly
// once). ReceiversPerHop receivers hang off every chain router. Long
// chains stress path depth: queueing, propagation pipelining, and graft
// walks of Length hops.
type LinearConfig struct {
	Chains          int      // parallel chains
	Length          int      // routers per chain
	ReceiversPerHop int      // receivers per chain router
	Bandwidth       float64  // chain link bandwidth in bits/s
	Delay           sim.Time // short by default: a 100-hop chain still has a sane RTT
	QueueLimit      int
	Layers          int
}

func (c *LinearConfig) keys() []key {
	return append([]key{
		row(&c.Chains, "chains", 2, "parallel chains", counts),
		row(&c.Length, "length", 5, "routers per chain", counts),
		row(&c.ReceiversPerHop, "rxhop", 1, "receivers per chain router", counts),
		row(&c.Bandwidth, "bw", 500e3, "chain link bandwidth", bitrates),
	}, linkKeys(&c.Delay, &c.QueueLimit, &c.Layers, 5*sim.Millisecond, "drop-tail")...)
}

func (c *LinearConfig) generate(e sim.Scheduler) *Build {
	n := netsim.New(e)
	var nm names
	rates := source.Rates(c.Layers)
	fat := netsim.LinkConfig{Bandwidth: FatBandwidth, Delay: c.Delay, QueueLimit: c.QueueLimit}
	chainLink := netsim.LinkConfig{Bandwidth: c.Bandwidth, Delay: c.Delay, QueueLimit: c.QueueLimit}
	src := n.AddNode("src")
	b := &Build{
		Net:        n,
		Sources:    []*netsim.Node{src},
		Controller: src,
		Receivers:  [][]*netsim.Node{nil},
		Optimal:    [][]int{nil},
	}
	opt := source.LevelForBandwidth(rates, c.Bandwidth)
	// Partition cut: the source alone is domain 0; each chain (routers
	// plus their receivers) is one domain behind its first chain link.
	b.Domains = []int{0}
	for ch := 0; ch < c.Chains; ch++ {
		prev := src
		for h := 0; h < c.Length; h++ {
			node := n.AddNode(nm.s("c").d(ch).s("-").d(h).end())
			b.Domains = append(b.Domains, ch+1)
			down, _ := n.Connect(prev, node, chainLink)
			if h == 0 {
				b.Bottlenecks = append(b.Bottlenecks, down)
			}
			for k := 0; k < c.ReceiversPerHop; k++ {
				rx := n.AddNode(nm.s("c").d(ch).s("-").d(h).s("-rx").d(k).end())
				b.Domains = append(b.Domains, ch+1)
				n.Connect(node, rx, fat)
				b.Receivers[0] = append(b.Receivers[0], rx)
				b.Optimal[0] = append(b.Optimal[0], opt)
			}
			prev = node
		}
	}
	return b
}
