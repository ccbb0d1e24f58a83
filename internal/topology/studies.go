// The fixed-shape families behind three secondary studies: the layer ladder
// of the heterogeneous-convergence study, the 1-2-2 tree of the
// bottleneck-depth study and the two-domain tree of the multi-domain study.
// Each study runs one shape, so these families take no parameters beyond
// the depth study's constrained tier.

package topology

import (
	"fmt"

	"toposense/internal/netsim"
	"toposense/internal/sim"
	"toposense/internal/source"
)

// The layer ladder's shape: LadderSets receiver sets, set k's access link
// sized for exactly k layers, LadderReceiversPerSet receivers each.
const (
	LadderSets            = 4
	LadderReceiversPerSet = 2
)

// LadderConfig is the layer ladder: the source feeds a hub, and arm k
// (1..LadderSets) carries the cumulative rate of k layers plus 4 % headroom
// to a gateway with LadderReceiversPerSet receivers, so arm k's optimum is
// exactly k. Receivers are listed set by set.
type LadderConfig struct{}

// Validate implements Config.
func (c *LadderConfig) Validate() error { return nil }

// Generate implements Config.
func (c *LadderConfig) Generate(e sim.Scheduler) (*Build, error) {
	n := netsim.New(e)
	fat := netsim.LinkConfig{Bandwidth: FatBandwidth, Delay: DefaultDelay}
	src := n.AddNode("src")
	hub := n.AddNode("hub")
	n.Connect(src, hub, fat)

	rates := source.Rates(source.DefaultLayers)
	b := &Build{
		Net:        n,
		Sources:    []*netsim.Node{src},
		Controller: src,
		Receivers:  [][]*netsim.Node{nil},
		Optimal:    [][]int{nil},
	}
	for set := 1; set <= LadderSets; set++ {
		bw := source.CumulativeRate(set) * 1.04
		gw := n.AddNode(fmt.Sprintf("set%d", set))
		down, _ := n.Connect(hub, gw, netsim.LinkConfig{Bandwidth: bw, Delay: DefaultDelay})
		b.Bottlenecks = append(b.Bottlenecks, down)
		for i := 0; i < LadderReceiversPerSet; i++ {
			rx := n.AddNode(fmt.Sprintf("set%d-rx%d", set, i))
			n.Connect(gw, rx, fat)
			b.Receivers[0] = append(b.Receivers[0], rx)
			b.Optimal[0] = append(b.Optimal[0], source.LevelForBandwidth(rates, bw))
		}
	}
	return b, nil
}

// lastMileNarrow is the depth study's one constrained link: 3 layers
// (224 Kbps) plus headroom.
const lastMileNarrow = 240e3

// LastMileConfig is the bottleneck-depth tree: one backbone node under the
// source, two regionals under it and two last-mile gateways under each, one
// receiver per gateway. Exactly one link is narrow, the first link into
// tier Tier, and everything else is fat:
//
//	src ──(tier 1)── bb ──(tier 2)── reg0 ──(tier 3)── gw0 ── rx0
//	                  │               └──────────────── gw1 ── rx1
//	                  └───────────── reg1 ──── gw2 ── rx2, gw3 ── rx3
//
// At tier 1 every receiver is behind it, at tier 2 the reg0 subtree, at
// tier 3 rx0 alone. Receivers behind it have optimum 3, the rest 6.
type LastMileConfig struct {
	Tier int // tier of the narrow link: 1 backbone, 2 regional, 3 last mile; 0 means 3
}

// Validate implements Config.
func (c *LastMileConfig) Validate() error {
	if c.Tier < 0 || c.Tier > 3 {
		return fmt.Errorf("topology lastmile: Tier %d out of range [1, 3]", c.Tier)
	}
	return nil
}

// Generate implements Config.
func (c *LastMileConfig) Generate(e sim.Scheduler) (*Build, error) {
	tier := c.Tier
	if tier == 0 {
		tier = 3
	}
	n := netsim.New(e)
	fat := netsim.LinkConfig{Bandwidth: FatBandwidth, Delay: DefaultDelay}
	narrow := netsim.LinkConfig{Bandwidth: lastMileNarrow, Delay: DefaultDelay}
	src := n.AddNode("src")
	b := &Build{Net: n, Sources: []*netsim.Node{src}, Controller: src,
		Receivers: [][]*netsim.Node{nil}, Optimal: [][]int{nil}}
	// connect links parent to child at tier t, the index-th link of its
	// tier; the first link of the chosen tier is the narrow one.
	connect := func(parent, child *netsim.Node, t, index int) {
		if t != tier || index != 0 {
			n.Connect(parent, child, fat)
			return
		}
		down, _ := n.Connect(parent, child, narrow)
		b.Bottlenecks = append(b.Bottlenecks, down)
	}
	bb := n.AddNode("bb")
	connect(src, bb, 1, 0)
	for r := 0; r < 2; r++ {
		reg := n.AddNode(fmt.Sprintf("reg%d", r))
		connect(bb, reg, 2, r)
		for l := 0; l < 2; l++ {
			gwIdx := r*2 + l
			gw := n.AddNode(fmt.Sprintf("gw%d", gwIdx))
			connect(reg, gw, 3, gwIdx)
			rx := n.AddNode(fmt.Sprintf("rx%d", gwIdx))
			n.Connect(gw, rx, fat)
			b.Receivers[0] = append(b.Receivers[0], rx)
			constrained := tier == 1 || (tier == 2 && r == 0) || (tier == 3 && gwIdx == 0)
			if constrained {
				b.Optimal[0] = append(b.Optimal[0], source.LevelForBandwidth(source.Rates(source.DefaultLayers), lastMileNarrow))
			} else {
				b.Optimal[0] = append(b.Optimal[0], source.DefaultLayers)
			}
		}
	}
	return b, nil
}

// domainsReceivers is the receiver count of each domain of DomainsConfig.
const domainsReceivers = 3

// DomainsConfig is the two-domain tree of the paper's Figure 3: the source
// and backbone are domain 0, each gateway subtree its own domain, with
// domainsReceivers receivers behind each domain's access link:
//
//	src ── backbone ── gw1 ──(100 Kbps)── d1r ── domain-1 receivers
//	           └────── gw2 ──(500 Kbps)── d2r ── domain-2 receivers
type DomainsConfig struct{}

// Validate implements Config.
func (c *DomainsConfig) Validate() error { return nil }

// Generate implements Config.
func (c *DomainsConfig) Generate(e sim.Scheduler) (*Build, error) {
	n := netsim.New(e)
	fat := netsim.LinkConfig{Bandwidth: FatBandwidth, Delay: DefaultDelay}
	src := n.AddNode("src")
	bb := n.AddNode("backbone")
	n.Connect(src, bb, fat)
	b := &Build{
		Net: n, Sources: []*netsim.Node{src}, Controller: src,
		Receivers: make([][]*netsim.Node, 1), Optimal: make([][]int, 1),
		Domains: []int{0, 0},
	}
	for d, bandwidth := range []float64{100e3, 500e3} {
		gw := n.AddNode(fmt.Sprintf("gw%d", d+1))
		n.Connect(bb, gw, fat)
		agg := n.AddNode(fmt.Sprintf("d%dr", d+1))
		down, _ := n.Connect(gw, agg, netsim.LinkConfig{Bandwidth: bandwidth, Delay: DefaultDelay})
		b.Bottlenecks = append(b.Bottlenecks, down)
		b.Domains = append(b.Domains, d+1, d+1)
		for i := 0; i < domainsReceivers; i++ {
			rx := n.AddNode(fmt.Sprintf("d%d-rx%d", d+1, i))
			n.Connect(agg, rx, fat)
			b.Domains = append(b.Domains, d+1)
			b.Receivers[0] = append(b.Receivers[0], rx)
			b.Optimal[0] = append(b.Optimal[0], source.LevelForBandwidth(source.Rates(source.DefaultLayers), bandwidth))
		}
	}
	return b, nil
}

func init() {
	Register(Generator{
		Name:  "ladder",
		Title: "Layer ladder: hub arms sized for exactly 1..4 layers, 2 receivers each (convergence study)",
		New:   func() Config { return &LadderConfig{} },
	})
	Register(Generator{
		Name:  "lastmile",
		Title: "1-2-2 tree with one 3-layer link at a chosen tier (bottleneck-depth study)",
		New:   func() Config { return &LastMileConfig{} },
		Keys: []Key{
			key("tier", "tier of the narrow link: 1 backbone, 2 regional, 3 last mile (default 3)", func(c *LastMileConfig, v string) error { return parseInt(&c.Tier, v) }),
		},
	})
	Register(Generator{
		Name:     "domains",
		Title:    "Two domains behind one backbone, 100 and 500 Kbps, 3 receivers each (paper Fig. 3)",
		New:      func() Config { return &DomainsConfig{} },
		Labelled: true,
	})
}
