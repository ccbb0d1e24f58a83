// Package topology builds the evaluation topologies of the paper's Figure 5
// — Topology A (one session, two receiver sets with different bandwidth
// constraints) and Topology B (N sessions, one receiver each, competing on
// a shared bottleneck link) — plus a tiered-Internet generator in the shape
// of the paper's Figure 2, the large-scale star / ring-mesh / k-ary
// tree / linear-chain families (families.go) used by the fig_scale study,
// and the fixed shapes of three secondary studies (studies.go).
//
// Every family is a Config registered behind the Generator registry
// (generator.go) and declares its keys once, in a key table (keys.go):
// construct a config and Generate the Build, or resolve a
// "name,key=val,..." spec string with Parse.
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

// AConfig parameterizes Topology A: one session; receiver set 1 sits behind
// a slow access link, set 2 behind a faster one.
type AConfig struct {
	ReceiversPerSet int
	Set1Bandwidth   float64 // bits/s; the default's optimum is 2 layers
	Set2Bandwidth   float64 // bits/s; the default's optimum is 4 layers
	Delay           sim.Time
	QueueLimit      int
	Layers          int
}

func (c *AConfig) keys() []key {
	return append([]key{
		row(&c.ReceiversPerSet, "rxset", 1, "receivers per set", counts),
		row(&c.Set1Bandwidth, "bw1", 100e3, "set-1 access bandwidth", bitrates),
		row(&c.Set2Bandwidth, "bw2", 500e3, "set-2 access bandwidth", bitrates),
	}, linkKeys(&c.Delay, &c.QueueLimit, &c.Layers, DefaultDelay, "drop-tail")...)
}

// generate constructs Topology A:
//
//	src ── hub ──(set1 bottleneck)── g1 ── set-1 receivers
//	            └(set2 bottleneck)── g2 ── set-2 receivers
//
// The set access links are the bottlenecks; the multicast stream crosses
// each once, so every receiver in a set shares the set's constraint — the
// paper's "two sets of receivers, each having different bandwidth
// constraints".
func (c *AConfig) generate(e sim.Scheduler) *Build {
	n := netsim.New(e)
	var nm names
	fat := netsim.LinkConfig{Bandwidth: FatBandwidth, Delay: c.Delay, QueueLimit: c.QueueLimit}
	src := n.AddNode("src")
	hub := n.AddNode("hub")
	n.Connect(src, hub, fat)

	rates := source.Rates(c.Layers)
	b := &Build{
		Net:        n,
		Sources:    []*netsim.Node{src},
		Controller: src,
		Receivers:  [][]*netsim.Node{nil},
		Optimal:    [][]int{nil},
	}
	addSet := func(name string, bw float64) {
		gw := n.AddNode(name)
		down, _ := n.Connect(hub, gw, netsim.LinkConfig{Bandwidth: bw, Delay: c.Delay, QueueLimit: c.QueueLimit})
		b.Bottlenecks = append(b.Bottlenecks, down)
		opt := source.LevelForBandwidth(rates, bw)
		for i := 0; i < c.ReceiversPerSet; i++ {
			rx := n.AddNode(nm.s(name).s("-rx").d(i).end())
			n.Connect(gw, rx, fat)
			b.Receivers[0] = append(b.Receivers[0], rx)
			b.Optimal[0] = append(b.Optimal[0], opt)
		}
	}
	addSet("set1", c.Set1Bandwidth)
	addSet("set2", c.Set2Bandwidth)
	return b
}

// BConfig parameterizes Topology B: Sessions independent sessions, one
// receiver each, all crossing one shared link sized PerSession × Sessions.
type BConfig struct {
	Sessions   int
	PerSession float64 // bits/s of shared capacity per session
	Delay      sim.Time
	QueueLimit int // per session: the shared link's queue is Sessions times this
	Layers     int
	// ChurnReceivers gives every session a second receiver, churn<i> off Y,
	// for the membership-churn study to put under churn beside the settled
	// one.
	ChurnReceivers bool
}

func (c *BConfig) keys() []key {
	return append(append([]key{
		row(&c.Sessions, "sessions", 1, "competing sessions", counts),
		row(&c.PerSession, "persession", 500e3, "shared capacity per session", bitrates),
	}, linkKeys(&c.Delay, &c.QueueLimit, &c.Layers, DefaultDelay, "per-session")...),
		row(&c.ChurnReceivers, "churnrx", false, "add a second receiver per session off Y, for churn studies", flags))
}

// generate constructs Topology B:
//
//	src_i ── X ══(shared link, Sessions × PerSession)══ Y ── rx_i
//	                                                    └── churn_i (ChurnReceivers)
//
// The shared link's capacity is scaled with the number of sessions so each
// session can ideally receive PerSession (4 layers at the default 500 Kbps),
// exactly as in the paper's inter-session fairness experiments.
func (c *BConfig) generate(e sim.Scheduler) *Build {
	n := netsim.New(e)
	var nm names
	fat := netsim.LinkConfig{Bandwidth: FatBandwidth, Delay: c.Delay, QueueLimit: c.QueueLimit}
	x := n.AddNode("X")
	y := n.AddNode("Y")
	shared := c.PerSession * float64(c.Sessions)
	// The shared queue scales with session count so that per-session
	// buffering stays comparable as competition grows.
	sharedQ := c.QueueLimit * c.Sessions
	down, _ := n.Connect(x, y, netsim.LinkConfig{Bandwidth: shared, Delay: c.Delay, QueueLimit: sharedQ})

	rates := source.Rates(c.Layers)
	opt := source.LevelForBandwidth(rates, c.PerSession)
	b := &Build{Net: n, Bottlenecks: []*netsim.Link{down}}
	for s := 0; s < c.Sessions; s++ {
		src := n.AddNode(nm.s("src").d(s).end())
		n.Connect(src, x, fat)
		rx := n.AddNode(nm.s("rx").d(s).end())
		n.Connect(y, rx, fat)
		b.Sources = append(b.Sources, src)
		b.Receivers = append(b.Receivers, []*netsim.Node{rx})
		b.Optimal = append(b.Optimal, []int{opt})
	}
	if c.ChurnReceivers {
		// Created after every session's own nodes: same bottleneck as the
		// settled receiver, same optimum.
		for s := range b.Receivers {
			rx := n.AddNode(nm.s("churn").d(s).end())
			n.Connect(y, rx, fat)
			b.Receivers[s] = append(b.Receivers[s], rx)
			b.Optimal[s] = append(b.Optimal[s], opt)
		}
	}
	b.Controller = b.Sources[0]
	return b
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
	// ReceiversPerLeaf attaches receivers at the deepest tier.
	ReceiversPerLeaf int
	Delay            sim.Time
	QueueLimit       int
	Layers           int
}

func (c *TieredConfig) keys() []key {
	return append([]key{
		row(&c.Seed, "seed", 0, "bandwidth-jitter seed", seeds),
		row(&c.FanOut, "fanout", []int{2, 3}, "':'-separated per-tier fan-out", list(counts)),
		row(&c.Bandwidth, "bw", []float64{10e6, 600e3}, "':'-separated per-tier bandwidth", list(bitrates)),
		row(&c.ReceiversPerLeaf, "rxleaf", 1, "receivers per deepest-tier node", counts),
	}, linkKeys(&c.Delay, &c.QueueLimit, &c.Layers, DefaultDelay, "drop-tail")...)
}

// rules checks the one rule across tiered's keys: a bandwidth per tier.
func (c *TieredConfig) rules() error {
	if len(c.FanOut) != len(c.Bandwidth) {
		return fmt.Errorf("fanout has %d tiers but bw has %d", len(c.FanOut), len(c.Bandwidth))
	}
	return nil
}

// generate constructs a random tiered topology with one session rooted at
// the top tier. The optimal level of each receiver is the min bandwidth
// along its path.
func (c *TieredConfig) generate(e sim.Scheduler) *Build {
	rng := rand.New(rand.NewSource(c.Seed))
	n := netsim.New(e)
	var nm names
	rates := source.Rates(c.Layers)
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
	for tier := 0; tier < len(c.FanOut); tier++ {
		var next []tiered
		for _, parent := range frontier {
			for k := 0; k < c.FanOut[tier]; k++ {
				child := n.AddNode(nm.s("t").d(tier + 1).s("-").d(len(next)).end())
				dom := parent.dom
				if tier == 0 {
					dom = k + 1
				}
				b.Domains = append(b.Domains, dom)
				// Jitter capacity ±25% around the tier's nominal value.
				bw := c.Bandwidth[tier] * (0.75 + 0.5*rng.Float64())
				down, _ := n.Connect(parent.node, child, netsim.LinkConfig{
					Bandwidth: bw, Delay: c.Delay, QueueLimit: c.QueueLimit,
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
	fat := netsim.LinkConfig{Bandwidth: FatBandwidth, Delay: c.Delay, QueueLimit: c.QueueLimit}
	for _, leaf := range frontier {
		for k := 0; k < c.ReceiversPerLeaf; k++ {
			rx := n.AddNode(nm.s(leaf.node.Name).s("-rx").d(k).end())
			b.Domains = append(b.Domains, leaf.dom)
			n.Connect(leaf.node, rx, fat)
			b.Receivers[0] = append(b.Receivers[0], rx)
			b.Optimal[0] = append(b.Optimal[0], source.LevelForBandwidth(rates, leaf.minBW))
		}
	}
	return b
}
