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
	"fmt"
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
	Arms            int     // access arms off the hub; 0 means 8
	ReceiversPerArm int     // receivers per arm gateway; 0 means 4
	Bandwidth       float64 // nominal arm bandwidth in bits/s; 0 means 500e3
	Jitter          float64 // arm bandwidth spread as a fraction in [0, 1)
	Seed            int64   // jitter seed
	Delay           sim.Time
	QueueLimit      int
	Layers          int
}

// Validate implements Config.
func (c *StarConfig) Validate() error {
	switch {
	case c.Arms < 0:
		return fmt.Errorf("topology star: Arms %d is negative", c.Arms)
	case c.ReceiversPerArm < 0:
		return fmt.Errorf("topology star: ReceiversPerArm %d is negative", c.ReceiversPerArm)
	case c.Bandwidth < 0:
		return fmt.Errorf("topology star: Bandwidth %g is negative", c.Bandwidth)
	case c.Jitter < 0 || c.Jitter >= 1:
		return fmt.Errorf("topology star: Jitter %g out of range [0, 1)", c.Jitter)
	case c.Delay < 0:
		return fmt.Errorf("topology star: Delay %v is negative", c.Delay)
	case c.QueueLimit < 0:
		return fmt.Errorf("topology star: QueueLimit %d is negative", c.QueueLimit)
	}
	if err := validLayers(c.Layers); err != nil {
		return fmt.Errorf("topology star: %w", err)
	}
	return nil
}

func (c StarConfig) withDefaults() StarConfig {
	if c.Arms == 0 {
		c.Arms = 8
	}
	if c.ReceiversPerArm == 0 {
		c.ReceiversPerArm = 4
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 500e3
	}
	if c.Delay == 0 {
		c.Delay = DefaultDelay
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = DefaultQueueLimit
	}
	if c.Layers == 0 {
		c.Layers = source.DefaultLayers
	}
	return c
}

// Generate implements Config.
func (c *StarConfig) Generate(e sim.Scheduler) (*Build, error) {
	cfg := c.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := netsim.New(e)
	rates := source.Rates(cfg.Layers)
	fat := netsim.LinkConfig{Bandwidth: FatBandwidth, Delay: cfg.Delay, QueueLimit: cfg.QueueLimit}
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
	for a := 0; a < cfg.Arms; a++ {
		bw := cfg.Bandwidth
		if cfg.Jitter > 0 {
			bw *= 1 - cfg.Jitter + 2*cfg.Jitter*rng.Float64()
		}
		gw := n.AddNode(fmt.Sprintf("arm%d", a))
		b.Domains = append(b.Domains, a+1)
		down, _ := n.Connect(hub, gw, netsim.LinkConfig{Bandwidth: bw, Delay: cfg.Delay, QueueLimit: cfg.QueueLimit})
		b.Bottlenecks = append(b.Bottlenecks, down)
		opt := source.LevelForBandwidth(rates, bw)
		for i := 0; i < cfg.ReceiversPerArm; i++ {
			rx := n.AddNode(fmt.Sprintf("arm%d-rx%d", a, i))
			b.Domains = append(b.Domains, a+1)
			n.Connect(gw, rx, fat)
			b.Receivers[0] = append(b.Receivers[0], rx)
			b.Optimal[0] = append(b.Optimal[0], opt)
		}
	}
	return b, nil
}

// MeshConfig parameterizes a ring of routers with periodic cross-chords —
// the classic ring+cross mesh. The source feeds ring router 0; every ring
// router serves a gateway over an access link (the bottleneck) with
// ReceiversPerRouter receivers behind it. The chords create route
// diversity: this is the family with cycles, so it exercises the dense BFS
// routing (and its tie-breaks) rather than the tree fast path, and its
// scale ceiling is the O(N²) routing table, not the forwarding state.
type MeshConfig struct {
	Routers            int      // ring routers; 0 means 8 (minimum 3)
	CrossEvery         int      // a chord to the antipodal router every this many ring hops; 0 means 4
	ReceiversPerRouter int      // receivers behind each ring router; 0 means 2
	Access             float64  // access-link bandwidth in bits/s; 0 means 500e3
	Ring               float64  // ring and chord bandwidth; 0 means FatBandwidth
	Delay              sim.Time // 0 means 20 ms (paths cross many ring hops)
	QueueLimit         int
	Layers             int
}

// Validate implements Config.
func (c *MeshConfig) Validate() error {
	switch {
	case c.Routers < 0:
		return fmt.Errorf("topology mesh: Routers %d is negative", c.Routers)
	case c.Routers > 0 && c.Routers < 3:
		return fmt.Errorf("topology mesh: Routers %d, want >= 3 for a ring", c.Routers)
	case c.CrossEvery < 0:
		return fmt.Errorf("topology mesh: CrossEvery %d is negative", c.CrossEvery)
	case c.ReceiversPerRouter < 0:
		return fmt.Errorf("topology mesh: ReceiversPerRouter %d is negative", c.ReceiversPerRouter)
	case c.Access < 0 || c.Ring < 0:
		return fmt.Errorf("topology mesh: bandwidths must be positive (got %g, %g)", c.Access, c.Ring)
	case c.Delay < 0:
		return fmt.Errorf("topology mesh: Delay %v is negative", c.Delay)
	case c.QueueLimit < 0:
		return fmt.Errorf("topology mesh: QueueLimit %d is negative", c.QueueLimit)
	}
	if err := validLayers(c.Layers); err != nil {
		return fmt.Errorf("topology mesh: %w", err)
	}
	return nil
}

func (c MeshConfig) withDefaults() MeshConfig {
	if c.Routers == 0 {
		c.Routers = 8
	}
	if c.CrossEvery == 0 {
		c.CrossEvery = 4
	}
	if c.ReceiversPerRouter == 0 {
		c.ReceiversPerRouter = 2
	}
	if c.Access == 0 {
		c.Access = 500e3
	}
	if c.Ring == 0 {
		c.Ring = FatBandwidth
	}
	if c.Delay == 0 {
		c.Delay = 20 * sim.Millisecond
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = DefaultQueueLimit
	}
	if c.Layers == 0 {
		c.Layers = source.DefaultLayers
	}
	return c
}

// Generate implements Config.
func (c *MeshConfig) Generate(e sim.Scheduler) (*Build, error) {
	cfg := c.withDefaults()
	n := netsim.New(e)
	rates := source.Rates(cfg.Layers)
	ring := netsim.LinkConfig{Bandwidth: cfg.Ring, Delay: cfg.Delay, QueueLimit: cfg.QueueLimit}
	fat := netsim.LinkConfig{Bandwidth: FatBandwidth, Delay: cfg.Delay, QueueLimit: cfg.QueueLimit}
	src := n.AddNode("src")
	routers := make([]*netsim.Node, cfg.Routers)
	for i := range routers {
		routers[i] = n.AddNode(fmt.Sprintf("m%d", i))
	}
	n.Connect(src, routers[0], ring)
	for i := range routers {
		n.Connect(routers[i], routers[(i+1)%cfg.Routers], ring)
	}
	// Chords to the antipodal router, every CrossEvery positions around the
	// first half of the ring (the second half would duplicate them).
	for i := 0; i < cfg.Routers/2; i += cfg.CrossEvery {
		j := i + cfg.Routers/2
		if j != (i+1)%cfg.Routers && i != (j+1)%cfg.Routers {
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
	minBW := cfg.Access
	if cfg.Ring < minBW {
		minBW = cfg.Ring
	}
	opt := source.LevelForBandwidth(rates, minBW)
	for i, r := range routers {
		gw := n.AddNode(fmt.Sprintf("m%d-gw", i))
		down, _ := n.Connect(r, gw, netsim.LinkConfig{Bandwidth: cfg.Access, Delay: cfg.Delay, QueueLimit: cfg.QueueLimit})
		b.Bottlenecks = append(b.Bottlenecks, down)
		for k := 0; k < cfg.ReceiversPerRouter; k++ {
			rx := n.AddNode(fmt.Sprintf("m%d-rx%d", i, k))
			n.Connect(gw, rx, fat)
			b.Receivers[0] = append(b.Receivers[0], rx)
			b.Optimal[0] = append(b.Optimal[0], opt)
		}
	}
	return b, nil
}

// TreeConfig parameterizes a deep k-ary tree rooted at the source: Depth
// interior levels of Branch children each, with the deepest-tier links (the
// last hop into each leaf gateway) at Leaf bandwidth — the shared
// bottlenecks — and everything above at Backbone. ReceiversPerLeaf
// receivers hang off each leaf gateway over fat links. This is the
// fig_scale workhorse: depth=4, branch=10, rxleaf=10 is 10^5 receivers
// behind 11 111 interior routers, all routed by the O(N) tree tables.
type TreeConfig struct {
	Depth            int      // interior levels below the root; 0 means 3
	Branch           int      // children per interior node; 0 means 4
	ReceiversPerLeaf int      // receivers per deepest-tier gateway; 0 means 2
	Backbone         float64  // interior link bandwidth; 0 means FatBandwidth
	Leaf             float64  // deepest-tier link bandwidth (the bottleneck); 0 means 500e3
	Jitter           float64  // leaf bandwidth spread as a fraction in [0, 1)
	Seed             int64    // jitter seed
	Delay            sim.Time // 0 means 50 ms (deep paths still converse in sub-second RTTs)
	QueueLimit       int
	Layers           int
}

// Validate implements Config.
func (c *TreeConfig) Validate() error {
	switch {
	case c.Depth < 0:
		return fmt.Errorf("topology tree: Depth %d is negative", c.Depth)
	case c.Branch < 0:
		return fmt.Errorf("topology tree: Branch %d is negative", c.Branch)
	case c.ReceiversPerLeaf < 0:
		return fmt.Errorf("topology tree: ReceiversPerLeaf %d is negative", c.ReceiversPerLeaf)
	case c.Backbone < 0 || c.Leaf < 0:
		return fmt.Errorf("topology tree: bandwidths must be positive (got %g, %g)", c.Backbone, c.Leaf)
	case c.Jitter < 0 || c.Jitter >= 1:
		return fmt.Errorf("topology tree: Jitter %g out of range [0, 1)", c.Jitter)
	case c.Delay < 0:
		return fmt.Errorf("topology tree: Delay %v is negative", c.Delay)
	case c.QueueLimit < 0:
		return fmt.Errorf("topology tree: QueueLimit %d is negative", c.QueueLimit)
	}
	if err := validLayers(c.Layers); err != nil {
		return fmt.Errorf("topology tree: %w", err)
	}
	return nil
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.Depth == 0 {
		c.Depth = 3
	}
	if c.Branch == 0 {
		c.Branch = 4
	}
	if c.ReceiversPerLeaf == 0 {
		c.ReceiversPerLeaf = 2
	}
	if c.Backbone == 0 {
		c.Backbone = FatBandwidth
	}
	if c.Leaf == 0 {
		c.Leaf = 500e3
	}
	if c.Delay == 0 {
		c.Delay = 50 * sim.Millisecond
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = DefaultQueueLimit
	}
	if c.Layers == 0 {
		c.Layers = source.DefaultLayers
	}
	return c
}

// Generate implements Config.
func (c *TreeConfig) Generate(e sim.Scheduler) (*Build, error) {
	cfg := c.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := netsim.New(e)
	rates := source.Rates(cfg.Layers)
	fat := netsim.LinkConfig{Bandwidth: FatBandwidth, Delay: cfg.Delay, QueueLimit: cfg.QueueLimit}
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
	for level := 1; level <= cfg.Depth; level++ {
		leafTier := level == cfg.Depth
		next := make([]*netsim.Node, 0, len(frontier)*cfg.Branch)
		nextDom := make([]int, 0, cap(next))
		for pi, parent := range frontier {
			for k := 0; k < cfg.Branch; k++ {
				child := n.AddNode(fmt.Sprintf("k%d-%d", level, len(next)))
				dom := frontierDom[pi]
				if level == 1 {
					dom = k + 1
				}
				b.Domains = append(b.Domains, dom)
				bw := cfg.Backbone
				if leafTier {
					bw = cfg.Leaf
					if cfg.Jitter > 0 {
						bw *= 1 - cfg.Jitter + 2*cfg.Jitter*rng.Float64()
					}
				}
				down, _ := n.Connect(parent, child, netsim.LinkConfig{
					Bandwidth: bw, Delay: cfg.Delay, QueueLimit: cfg.QueueLimit,
				})
				if leafTier {
					b.Bottlenecks = append(b.Bottlenecks, down)
					opt := source.LevelForBandwidth(rates, bw)
					if cfg.Backbone < bw {
						opt = source.LevelForBandwidth(rates, cfg.Backbone)
					}
					for i := 0; i < cfg.ReceiversPerLeaf; i++ {
						rx := n.AddNode(fmt.Sprintf("%s-rx%d", child.Name, i))
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
	return b, nil
}

// LinearConfig parameterizes parallel chains: the source feeds Chains
// independent linear chains of Length routers connected by Bandwidth links
// (each chain's first hop is recorded as its bottleneck — every chain link
// has the same capacity, and the multicast stream crosses each exactly
// once). ReceiversPerHop receivers hang off every chain router. Long
// chains stress path depth: queueing, propagation pipelining, and graft
// walks of Length hops.
type LinearConfig struct {
	Chains          int      // parallel chains; 0 means 2
	Length          int      // routers per chain; 0 means 5
	ReceiversPerHop int      // receivers per chain router; 0 means 1
	Bandwidth       float64  // chain link bandwidth in bits/s; 0 means 500e3
	Delay           sim.Time // 0 means 5 ms (a 100-hop chain still has a sane RTT)
	QueueLimit      int
	Layers          int
}

// Validate implements Config.
func (c *LinearConfig) Validate() error {
	switch {
	case c.Chains < 0:
		return fmt.Errorf("topology linear: Chains %d is negative", c.Chains)
	case c.Length < 0:
		return fmt.Errorf("topology linear: Length %d is negative", c.Length)
	case c.ReceiversPerHop < 0:
		return fmt.Errorf("topology linear: ReceiversPerHop %d is negative", c.ReceiversPerHop)
	case c.Bandwidth < 0:
		return fmt.Errorf("topology linear: Bandwidth %g is negative", c.Bandwidth)
	case c.Delay < 0:
		return fmt.Errorf("topology linear: Delay %v is negative", c.Delay)
	case c.QueueLimit < 0:
		return fmt.Errorf("topology linear: QueueLimit %d is negative", c.QueueLimit)
	}
	if err := validLayers(c.Layers); err != nil {
		return fmt.Errorf("topology linear: %w", err)
	}
	return nil
}

func (c LinearConfig) withDefaults() LinearConfig {
	if c.Chains == 0 {
		c.Chains = 2
	}
	if c.Length == 0 {
		c.Length = 5
	}
	if c.ReceiversPerHop == 0 {
		c.ReceiversPerHop = 1
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 500e3
	}
	if c.Delay == 0 {
		c.Delay = 5 * sim.Millisecond
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = DefaultQueueLimit
	}
	if c.Layers == 0 {
		c.Layers = source.DefaultLayers
	}
	return c
}

// Generate implements Config.
func (c *LinearConfig) Generate(e sim.Scheduler) (*Build, error) {
	cfg := c.withDefaults()
	n := netsim.New(e)
	rates := source.Rates(cfg.Layers)
	fat := netsim.LinkConfig{Bandwidth: FatBandwidth, Delay: cfg.Delay, QueueLimit: cfg.QueueLimit}
	chainLink := netsim.LinkConfig{Bandwidth: cfg.Bandwidth, Delay: cfg.Delay, QueueLimit: cfg.QueueLimit}
	src := n.AddNode("src")
	b := &Build{
		Net:        n,
		Sources:    []*netsim.Node{src},
		Controller: src,
		Receivers:  [][]*netsim.Node{nil},
		Optimal:    [][]int{nil},
	}
	opt := source.LevelForBandwidth(rates, cfg.Bandwidth)
	// Partition cut: the source alone is domain 0; each chain (routers
	// plus their receivers) is one domain behind its first chain link.
	b.Domains = []int{0}
	for ch := 0; ch < cfg.Chains; ch++ {
		prev := src
		for h := 0; h < cfg.Length; h++ {
			node := n.AddNode(fmt.Sprintf("c%d-%d", ch, h))
			b.Domains = append(b.Domains, ch+1)
			down, _ := n.Connect(prev, node, chainLink)
			if h == 0 {
				b.Bottlenecks = append(b.Bottlenecks, down)
			}
			for k := 0; k < cfg.ReceiversPerHop; k++ {
				rx := n.AddNode(fmt.Sprintf("c%d-%d-rx%d", ch, h, k))
				b.Domains = append(b.Domains, ch+1)
				n.Connect(node, rx, fat)
				b.Receivers[0] = append(b.Receivers[0], rx)
				b.Optimal[0] = append(b.Optimal[0], opt)
			}
			prev = node
		}
	}
	return b, nil
}

func init() {
	Register(Generator{
		Name:  "star",
		Title: "Star: hub fanning into per-arm bottleneck access links",
		New:   func() Config { return &StarConfig{} },
		Keys: []Key{
			key("arms", "access arms off the hub (default 8)", func(c *StarConfig, v string) error { return parseInt(&c.Arms, v) }),
			key("rxarm", "receivers per arm (default 4)", func(c *StarConfig, v string) error { return parseInt(&c.ReceiversPerArm, v) }),
			key("bw", "nominal arm bandwidth in bits/s (default 500e3)", func(c *StarConfig, v string) error { return parseFloat(&c.Bandwidth, v) }),
			key("jitter", "arm bandwidth spread fraction in [0,1) (default 0)", func(c *StarConfig, v string) error { return parseFloat(&c.Jitter, v) }),
			key("seed", "jitter seed (default 0)", func(c *StarConfig, v string) error { return parseInt64(&c.Seed, v) }),
			key("delay", "per-link propagation delay in seconds (default 0.2)", func(c *StarConfig, v string) error { return parseSeconds(&c.Delay, v) }),
			key("queue", "drop-tail queue limit in packets (default 20)", func(c *StarConfig, v string) error { return parseInt(&c.QueueLimit, v) }),
			key("layers", "session layers (default 6)", func(c *StarConfig, v string) error { return parseInt(&c.Layers, v) }),
		},
		Labelled: true,
	})
	Register(Generator{
		Name:  "mesh",
		Title: "Mesh: router ring with cross-chords, receivers on access links",
		New:   func() Config { return &MeshConfig{} },
		Keys: []Key{
			key("routers", "ring routers (default 8, min 3)", func(c *MeshConfig, v string) error { return parseInt(&c.Routers, v) }),
			key("cross", "chord to the antipode every this many ring hops (default 4)", func(c *MeshConfig, v string) error { return parseInt(&c.CrossEvery, v) }),
			key("rxrouter", "receivers behind each ring router (default 2)", func(c *MeshConfig, v string) error { return parseInt(&c.ReceiversPerRouter, v) }),
			key("access", "access-link bandwidth in bits/s (default 500e3)", func(c *MeshConfig, v string) error { return parseFloat(&c.Access, v) }),
			key("ring", "ring and chord bandwidth in bits/s (default 100e6)", func(c *MeshConfig, v string) error { return parseFloat(&c.Ring, v) }),
			key("delay", "per-link propagation delay in seconds (default 0.02)", func(c *MeshConfig, v string) error { return parseSeconds(&c.Delay, v) }),
			key("queue", "drop-tail queue limit in packets (default 20)", func(c *MeshConfig, v string) error { return parseInt(&c.QueueLimit, v) }),
			key("layers", "session layers (default 6)", func(c *MeshConfig, v string) error { return parseInt(&c.Layers, v) }),
		},
	})
	Register(Generator{
		Name:  "tree",
		Title: "Deep k-ary tree: bottleneck links at the deepest tier",
		New:   func() Config { return &TreeConfig{} },
		Keys: []Key{
			key("depth", "interior levels below the root (default 3)", func(c *TreeConfig, v string) error { return parseInt(&c.Depth, v) }),
			key("branch", "children per interior node (default 4)", func(c *TreeConfig, v string) error { return parseInt(&c.Branch, v) }),
			key("rxleaf", "receivers per leaf gateway (default 2)", func(c *TreeConfig, v string) error { return parseInt(&c.ReceiversPerLeaf, v) }),
			key("backbone", "interior link bandwidth in bits/s (default 100e6)", func(c *TreeConfig, v string) error { return parseFloat(&c.Backbone, v) }),
			key("leaf", "deepest-tier link bandwidth in bits/s (default 500e3)", func(c *TreeConfig, v string) error { return parseFloat(&c.Leaf, v) }),
			key("jitter", "leaf bandwidth spread fraction in [0,1) (default 0)", func(c *TreeConfig, v string) error { return parseFloat(&c.Jitter, v) }),
			key("seed", "jitter seed (default 0)", func(c *TreeConfig, v string) error { return parseInt64(&c.Seed, v) }),
			key("delay", "per-link propagation delay in seconds (default 0.05)", func(c *TreeConfig, v string) error { return parseSeconds(&c.Delay, v) }),
			key("queue", "drop-tail queue limit in packets (default 20)", func(c *TreeConfig, v string) error { return parseInt(&c.QueueLimit, v) }),
			key("layers", "session layers (default 6)", func(c *TreeConfig, v string) error { return parseInt(&c.Layers, v) }),
		},
		Labelled: true,
	})
	Register(Generator{
		Name:  "linear",
		Title: "Linear: parallel chains of routers, receivers at every hop",
		New:   func() Config { return &LinearConfig{} },
		Keys: []Key{
			key("chains", "parallel chains (default 2)", func(c *LinearConfig, v string) error { return parseInt(&c.Chains, v) }),
			key("length", "routers per chain (default 5)", func(c *LinearConfig, v string) error { return parseInt(&c.Length, v) }),
			key("rxhop", "receivers per chain router (default 1)", func(c *LinearConfig, v string) error { return parseInt(&c.ReceiversPerHop, v) }),
			key("bw", "chain link bandwidth in bits/s (default 500e3)", func(c *LinearConfig, v string) error { return parseFloat(&c.Bandwidth, v) }),
			key("delay", "per-link propagation delay in seconds (default 0.005)", func(c *LinearConfig, v string) error { return parseSeconds(&c.Delay, v) }),
			key("queue", "drop-tail queue limit in packets (default 20)", func(c *LinearConfig, v string) error { return parseInt(&c.QueueLimit, v) }),
			key("layers", "session layers (default 6)", func(c *LinearConfig, v string) error { return parseInt(&c.Layers, v) }),
		},
		Labelled: true,
	})
}
