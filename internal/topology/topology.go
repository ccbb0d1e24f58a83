// Package topology builds the evaluation topologies of the paper's Figure 5
// — Topology A (one session, two receiver sets with different bandwidth
// constraints) and Topology B (N sessions, one receiver each, competing on
// a shared bottleneck link) — plus a tiered-Internet generator in the shape
// of the paper's Figure 2, the large-scale star / ring-mesh / k-ary
// tree / linear-chain families (families.go) used by the fig_scale study,
// and the fixed shapes of three secondary studies (studies.go).
//
// Every family is a Config registered behind the Generator registry
// (generator.go): construct a config, Validate it, Generate the Build — or
// resolve a "name,key=val,..." spec string with Parse.
//
// All links default to the paper's parameters: 200 ms propagation delay and
// drop-tail queues. The canonical topologies keep the source-to-receiver
// path at three hops, giving the 600 ms maximum path latency the paper
// quotes for its simulations.
package topology

import (
	"fmt"
	"math/rand"

	"toposense/internal/netsim"
	"toposense/internal/sim"
	"toposense/internal/source"
)

// Paper-standard link parameters.
const (
	DefaultDelay      = 200 * sim.Millisecond
	DefaultQueueLimit = netsim.DefaultQueueLimit
	// FatBandwidth is "not the bottleneck": used for backbone and leaf
	// access links.
	FatBandwidth = 100e6
)

// Build is the result of constructing an evaluation topology: the network
// plus the handles experiments need.
type Build struct {
	Net *netsim.Network
	// Sources holds the source node of each session (session i at index i).
	Sources []*netsim.Node
	// Controller is the node hosting the controller agent (a source node,
	// as in the paper, so control traffic shares the congested paths).
	Controller *netsim.Node
	// Receivers[i] lists the receiver nodes of session i.
	Receivers [][]*netsim.Node
	// Optimal[i][j] is the optimal subscription level of Receivers[i][j],
	// derived from the configured capacities.
	Optimal [][]int
	// Bottlenecks lists the constrained links, for instrumentation.
	Bottlenecks []*netsim.Link
	// Domains assigns each node (by ID) a partition label for the sharded
	// engine: label 0 holds the source and controller, labels 1..k the
	// link-delay-separated regions (tree root-child subtrees, star arms,
	// linear chains, tiered tier-1 subtrees). Every link between two
	// labels has positive propagation delay, which is what gives the
	// conservative parallel engine its lookahead. Nil means the family
	// offers no useful cut (Topology A/B, mesh) and a sharded engine
	// degenerates to one partition.
	Domains []int
}

// AllReceivers flattens the per-session receiver lists.
func (b *Build) AllReceivers() []*netsim.Node {
	var out []*netsim.Node
	for _, rs := range b.Receivers {
		out = append(out, rs...)
	}
	return out
}

// validLayers rejects layer counts the source model cannot express.
func validLayers(layers int) error {
	if layers < 0 || layers > 62 {
		return fmt.Errorf("Layers %d out of range [0, 62]", layers)
	}
	return nil
}

// AConfig parameterizes Topology A: one session; receiver set 1 sits behind
// a slow access link, set 2 behind a faster one.
type AConfig struct {
	ReceiversPerSet int      // 0 means 1
	Set1Bandwidth   float64  // bits/s; 0 means 100 Kbps (optimal: 2 layers)
	Set2Bandwidth   float64  // bits/s; 0 means 500 Kbps (optimal: 4 layers)
	Delay           sim.Time // 0 means DefaultDelay
	QueueLimit      int      // 0 means DefaultQueueLimit
	Layers          int      // 0 means source.DefaultLayers
}

// Validate implements Config: zero means default, anything else must be
// buildable.
func (c *AConfig) Validate() error {
	switch {
	case c.ReceiversPerSet < 0:
		return fmt.Errorf("topology a: ReceiversPerSet %d is negative", c.ReceiversPerSet)
	case c.Set1Bandwidth < 0 || c.Set2Bandwidth < 0:
		return fmt.Errorf("topology a: bandwidths must be positive (got %g, %g)", c.Set1Bandwidth, c.Set2Bandwidth)
	case c.Delay < 0:
		return fmt.Errorf("topology a: Delay %v is negative", c.Delay)
	case c.QueueLimit < 0:
		return fmt.Errorf("topology a: QueueLimit %d is negative", c.QueueLimit)
	}
	if err := validLayers(c.Layers); err != nil {
		return fmt.Errorf("topology a: %w", err)
	}
	return nil
}

func (c AConfig) withDefaults() AConfig {
	if c.ReceiversPerSet == 0 {
		c.ReceiversPerSet = 1
	}
	if c.Set1Bandwidth == 0 {
		c.Set1Bandwidth = 100e3
	}
	if c.Set2Bandwidth == 0 {
		c.Set2Bandwidth = 500e3
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

// Generate constructs Topology A:
//
//	src ── hub ──(set1 bottleneck)── g1 ── set-1 receivers
//	            └(set2 bottleneck)── g2 ── set-2 receivers
//
// The set access links are the bottlenecks; the multicast stream crosses
// each once, so every receiver in a set shares the set's constraint — the
// paper's "two sets of receivers, each having different bandwidth
// constraints".
func (c *AConfig) Generate(e sim.Scheduler) (*Build, error) {
	cfg := c.withDefaults()
	n := netsim.New(e)
	fat := netsim.LinkConfig{Bandwidth: FatBandwidth, Delay: cfg.Delay, QueueLimit: cfg.QueueLimit}
	src := n.AddNode("src")
	hub := n.AddNode("hub")
	n.Connect(src, hub, fat)

	rates := source.Rates(cfg.Layers)
	b := &Build{
		Net:        n,
		Sources:    []*netsim.Node{src},
		Controller: src,
		Receivers:  [][]*netsim.Node{nil},
		Optimal:    [][]int{nil},
	}
	addSet := func(name string, bw float64) {
		gw := n.AddNode(name)
		down, _ := n.Connect(hub, gw, netsim.LinkConfig{Bandwidth: bw, Delay: cfg.Delay, QueueLimit: cfg.QueueLimit})
		b.Bottlenecks = append(b.Bottlenecks, down)
		opt := source.LevelForBandwidth(rates, bw)
		for i := 0; i < cfg.ReceiversPerSet; i++ {
			rx := n.AddNode(fmt.Sprintf("%s-rx%d", name, i))
			n.Connect(gw, rx, fat)
			b.Receivers[0] = append(b.Receivers[0], rx)
			b.Optimal[0] = append(b.Optimal[0], opt)
		}
	}
	addSet("set1", cfg.Set1Bandwidth)
	addSet("set2", cfg.Set2Bandwidth)
	return b, nil
}

// BConfig parameterizes Topology B: Sessions independent sessions, one
// receiver each, all crossing one shared link sized PerSession × Sessions.
type BConfig struct {
	Sessions   int      // 0 means 1
	PerSession float64  // bits/s of shared capacity per session; 0 means 500 Kbps
	Delay      sim.Time // 0 means DefaultDelay
	QueueLimit int      // 0 means DefaultQueueLimit
	Layers     int      // 0 means source.DefaultLayers
	// ChurnReceivers gives every session a second receiver, churn<i> off Y,
	// for the membership-churn study to put under churn beside the settled
	// one.
	ChurnReceivers bool
}

// Validate implements Config.
func (c *BConfig) Validate() error {
	switch {
	case c.Sessions < 0:
		return fmt.Errorf("topology b: Sessions %d is negative", c.Sessions)
	case c.PerSession < 0:
		return fmt.Errorf("topology b: PerSession %g is negative", c.PerSession)
	case c.Delay < 0:
		return fmt.Errorf("topology b: Delay %v is negative", c.Delay)
	case c.QueueLimit < 0:
		return fmt.Errorf("topology b: QueueLimit %d is negative", c.QueueLimit)
	}
	if err := validLayers(c.Layers); err != nil {
		return fmt.Errorf("topology b: %w", err)
	}
	return nil
}

func (c BConfig) withDefaults() BConfig {
	if c.Sessions == 0 {
		c.Sessions = 1
	}
	if c.PerSession == 0 {
		c.PerSession = 500e3
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

// Generate constructs Topology B:
//
//	src_i ── X ══(shared link, Sessions × PerSession)══ Y ── rx_i
//	                                                    └── churn_i (ChurnReceivers)
//
// The shared link's capacity is scaled with the number of sessions so each
// session can ideally receive PerSession (4 layers at the default 500 Kbps),
// exactly as in the paper's inter-session fairness experiments.
func (c *BConfig) Generate(e sim.Scheduler) (*Build, error) {
	cfg := c.withDefaults()
	n := netsim.New(e)
	fat := netsim.LinkConfig{Bandwidth: FatBandwidth, Delay: cfg.Delay, QueueLimit: cfg.QueueLimit}
	x := n.AddNode("X")
	y := n.AddNode("Y")
	shared := cfg.PerSession * float64(cfg.Sessions)
	// The shared queue scales with session count so that per-session
	// buffering stays comparable as competition grows.
	sharedQ := cfg.QueueLimit * cfg.Sessions
	down, _ := n.Connect(x, y, netsim.LinkConfig{Bandwidth: shared, Delay: cfg.Delay, QueueLimit: sharedQ})

	rates := source.Rates(cfg.Layers)
	opt := source.LevelForBandwidth(rates, cfg.PerSession)
	b := &Build{Net: n, Bottlenecks: []*netsim.Link{down}}
	for s := 0; s < cfg.Sessions; s++ {
		src := n.AddNode(fmt.Sprintf("src%d", s))
		n.Connect(src, x, fat)
		rx := n.AddNode(fmt.Sprintf("rx%d", s))
		n.Connect(y, rx, fat)
		b.Sources = append(b.Sources, src)
		b.Receivers = append(b.Receivers, []*netsim.Node{rx})
		b.Optimal = append(b.Optimal, []int{opt})
	}
	if cfg.ChurnReceivers {
		// Created after every session's own nodes: same bottleneck as the
		// settled receiver, same optimum.
		for s := range b.Receivers {
			rx := n.AddNode(fmt.Sprintf("churn%d", s))
			n.Connect(y, rx, fat)
			b.Receivers[s] = append(b.Receivers[s], rx)
			b.Optimal[s] = append(b.Optimal[s], opt)
		}
	}
	b.Controller = b.Sources[0]
	return b, nil
}

// TieredConfig parameterizes the tiered-Internet generator (Figure 2): a
// national backbone tier fanning out into regional, local and institutional
// tiers with decreasing bandwidth — the "last mile" shape TopoSense
// exploits.
type TieredConfig struct {
	Seed int64
	// FanOut[i] is how many tier-i+1 nodes hang off each tier-i node.
	FanOut []int
	// Bandwidth[i] is the capacity of links from tier i to tier i+1.
	Bandwidth []float64
	// ReceiversPerLeaf attaches receivers at the deepest tier; 0 means 1.
	ReceiversPerLeaf int
	Delay            sim.Time
	QueueLimit       int
	Layers           int
}

// Validate implements Config.
func (c *TieredConfig) Validate() error {
	if len(c.FanOut) == 0 || len(c.FanOut) != len(c.Bandwidth) {
		return fmt.Errorf("topology tiered: FanOut and Bandwidth must be non-empty and equal length (got %d, %d)", len(c.FanOut), len(c.Bandwidth))
	}
	for i, f := range c.FanOut {
		if f < 1 {
			return fmt.Errorf("topology tiered: FanOut[%d] = %d, want >= 1", i, f)
		}
	}
	for i, bw := range c.Bandwidth {
		if bw <= 0 {
			return fmt.Errorf("topology tiered: Bandwidth[%d] = %g, want > 0", i, bw)
		}
	}
	switch {
	case c.ReceiversPerLeaf < 0:
		return fmt.Errorf("topology tiered: ReceiversPerLeaf %d is negative", c.ReceiversPerLeaf)
	case c.Delay < 0:
		return fmt.Errorf("topology tiered: Delay %v is negative", c.Delay)
	case c.QueueLimit < 0:
		return fmt.Errorf("topology tiered: QueueLimit %d is negative", c.QueueLimit)
	}
	if err := validLayers(c.Layers); err != nil {
		return fmt.Errorf("topology tiered: %w", err)
	}
	return nil
}

func (c TieredConfig) withDefaults() TieredConfig {
	if c.ReceiversPerLeaf == 0 {
		c.ReceiversPerLeaf = 1
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

// Generate constructs a random tiered topology with one session rooted at
// the top tier. The optimal level of each receiver is the min bandwidth
// along its path.
func (c *TieredConfig) Generate(e sim.Scheduler) (*Build, error) {
	cfg := c.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := netsim.New(e)
	rates := source.Rates(cfg.Layers)
	src := n.AddNode("src")
	b := &Build{
		Net:        n,
		Sources:    []*netsim.Node{src},
		Controller: src,
		Receivers:  [][]*netsim.Node{nil},
		Optimal:    [][]int{nil},
	}
	// Partition cut: the backbone source alone is domain 0; each tier-1
	// subtree is one domain behind its backbone downlink.
	b.Domains = []int{0}
	type tiered struct {
		node  *netsim.Node
		minBW float64
		dom   int
	}
	frontier := []tiered{{node: src, minBW: FatBandwidth}}
	for tier := 0; tier < len(cfg.FanOut); tier++ {
		var next []tiered
		for _, parent := range frontier {
			for k := 0; k < cfg.FanOut[tier]; k++ {
				child := n.AddNode(fmt.Sprintf("t%d-%d", tier+1, len(next)))
				dom := parent.dom
				if tier == 0 {
					dom = k + 1
				}
				b.Domains = append(b.Domains, dom)
				// Jitter capacity ±25% around the tier's nominal value.
				bw := cfg.Bandwidth[tier] * (0.75 + 0.5*rng.Float64())
				down, _ := n.Connect(parent.node, child, netsim.LinkConfig{
					Bandwidth: bw, Delay: cfg.Delay, QueueLimit: cfg.QueueLimit,
				})
				minBW := parent.minBW
				if bw < minBW {
					minBW = bw
					b.Bottlenecks = append(b.Bottlenecks, down)
				}
				next = append(next, tiered{node: child, minBW: minBW, dom: dom})
			}
		}
		frontier = next
	}
	fat := netsim.LinkConfig{Bandwidth: FatBandwidth, Delay: cfg.Delay, QueueLimit: cfg.QueueLimit}
	for _, leaf := range frontier {
		for k := 0; k < cfg.ReceiversPerLeaf; k++ {
			rx := n.AddNode(fmt.Sprintf("%s-rx%d", leaf.node.Name, k))
			b.Domains = append(b.Domains, leaf.dom)
			n.Connect(leaf.node, rx, fat)
			b.Receivers[0] = append(b.Receivers[0], rx)
			b.Optimal[0] = append(b.Optimal[0], source.LevelForBandwidth(rates, leaf.minBW))
		}
	}
	return b, nil
}

func init() {
	Register(Generator{
		Name:  "a",
		Title: "Topology A: two receiver sets behind different bottlenecks (paper Fig. 5)",
		New:   func() Config { return &AConfig{} },
		Keys: []Key{
			key("rxset", "receivers per set (default 1)", func(c *AConfig, v string) error { return parseInt(&c.ReceiversPerSet, v) }),
			key("bw1", "set-1 access bandwidth in bits/s (default 100e3)", func(c *AConfig, v string) error { return parseFloat(&c.Set1Bandwidth, v) }),
			key("bw2", "set-2 access bandwidth in bits/s (default 500e3)", func(c *AConfig, v string) error { return parseFloat(&c.Set2Bandwidth, v) }),
			key("delay", "per-link propagation delay in seconds (default 0.2)", func(c *AConfig, v string) error { return parseSeconds(&c.Delay, v) }),
			key("queue", "drop-tail queue limit in packets (default 20)", func(c *AConfig, v string) error { return parseInt(&c.QueueLimit, v) }),
			key("layers", "session layers (default 6)", func(c *AConfig, v string) error { return parseInt(&c.Layers, v) }),
		},
	})
	Register(Generator{
		Name:  "b",
		Title: "Topology B: N sessions competing on one shared link (paper Fig. 5)",
		New:   func() Config { return &BConfig{} },
		Keys: []Key{
			key("sessions", "competing sessions (default 1)", func(c *BConfig, v string) error { return parseInt(&c.Sessions, v) }),
			key("persession", "shared capacity per session in bits/s (default 500e3)", func(c *BConfig, v string) error { return parseFloat(&c.PerSession, v) }),
			key("delay", "per-link propagation delay in seconds (default 0.2)", func(c *BConfig, v string) error { return parseSeconds(&c.Delay, v) }),
			key("queue", "per-session queue limit in packets (default 20)", func(c *BConfig, v string) error { return parseInt(&c.QueueLimit, v) }),
			key("layers", "session layers (default 6)", func(c *BConfig, v string) error { return parseInt(&c.Layers, v) }),
			key("churnrx", "add a second receiver per session off Y, for churn studies (default false)", func(c *BConfig, v string) error { return parseBool(&c.ChurnReceivers, v) }),
		},
	})
	Register(Generator{
		Name:  "tiered",
		Title: "Tiered Internet: backbone fanning into slower tiers (paper Fig. 2)",
		New:   func() Config { return &TieredConfig{FanOut: []int{2, 3}, Bandwidth: []float64{10e6, 600e3}} },
		Keys: []Key{
			key("seed", "bandwidth-jitter seed (default 0)", func(c *TieredConfig, v string) error { return parseInt64(&c.Seed, v) }),
			key("fanout", "':'-separated per-tier fan-out (default 2:3)", func(c *TieredConfig, v string) error { return parseInts(&c.FanOut, v) }),
			key("bw", "':'-separated per-tier bandwidth in bits/s (default 10e6:600e3)", func(c *TieredConfig, v string) error { return parseFloats(&c.Bandwidth, v) }),
			key("rxleaf", "receivers per deepest-tier node (default 1)", func(c *TieredConfig, v string) error { return parseInt(&c.ReceiversPerLeaf, v) }),
			key("delay", "per-link propagation delay in seconds (default 0.2)", func(c *TieredConfig, v string) error { return parseSeconds(&c.Delay, v) }),
			key("queue", "drop-tail queue limit in packets (default 20)", func(c *TieredConfig, v string) error { return parseInt(&c.QueueLimit, v) }),
			key("layers", "session layers (default 6)", func(c *TieredConfig, v string) error { return parseInt(&c.Layers, v) }),
		},
		Labelled: true,
	})
}
