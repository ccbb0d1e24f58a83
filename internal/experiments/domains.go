package experiments

import (
	"fmt"

	"toposense/internal/metrics"
	"toposense/internal/netsim"
	"toposense/internal/sim"
	"toposense/internal/source"
	"toposense/internal/topology"
)

// This file reproduces the paper's Figure 3 architecture: "multiple
// controller agents, each concerned with one particular administrative
// domain. Each domain and controller agent is unaware of the other
// controller agents' existence." The claim behind it is subtree
// independence — "disjoint subtrees on the multicast tree do not affect
// each other as long as their common ancestors have a high capacity" — so
// per-domain local control should match a single omniscient controller.

// DomainRow reports one control architecture's outcome.
type DomainRow struct {
	Variant    string // "global" or "per-domain"
	Domain     string // which domain the row describes
	Deviation  float64
	FinalOK    bool // all receivers within 1 layer of optimal at the end
	MaxChanges int
}

// domainsReceivers is the receiver count of each domain.
const domainsReceivers = 3

// domainsTopology emits the two-domain topology as a Build whose domain
// labels put the source and backbone in domain 0 and each gateway subtree
// in its own domain:
//
//	src ── bb ── gw1 ──(100 Kbps)── d1r ── domain-1 receivers
//	        └─── gw2 ──(500 Kbps)── d2r ── domain-2 receivers
func domainsTopology(e sim.Scheduler, receiversPer int) *topology.Build {
	n := netsim.New(e)
	fat := netsim.LinkConfig{Bandwidth: 100e6, Delay: 200 * sim.Millisecond}
	src := n.AddNode("src")
	bb := n.AddNode("backbone")
	n.Connect(src, bb, fat)
	b := &topology.Build{
		Net: n, Sources: []*netsim.Node{src}, Controller: src,
		Receivers: make([][]*netsim.Node, 1), Optimal: make([][]int, 1),
		Domains: []int{0, 0},
	}
	for d, bandwidth := range []float64{100e3, 500e3} {
		gw := n.AddNode(fmt.Sprintf("gw%d", d+1))
		n.Connect(bb, gw, fat)
		agg := n.AddNode(fmt.Sprintf("d%dr", d+1))
		n.Connect(gw, agg, netsim.LinkConfig{Bandwidth: bandwidth, Delay: 200 * sim.Millisecond})
		b.Domains = append(b.Domains, d+1, d+1)
		for i := 0; i < receiversPer; i++ {
			rx := n.AddNode(fmt.Sprintf("d%d-rx%d", d+1, i))
			n.Connect(agg, rx, fat)
			b.Domains = append(b.Domains, d+1)
			b.Receivers[0] = append(b.Receivers[0], rx)
			b.Optimal[0] = append(b.Optimal[0], source.LevelForBandwidth(source.Rates(source.DefaultLayers), bandwidth))
		}
	}
	return b
}

// domainsSpecs enumerates both control architectures — one global agent at
// the source seeing everything, or one agent per domain stationed at its
// gateway and seeing only its own subtree — as one CBR run per (variant,
// seed); each run reports its own per-domain DomainRows with that seed's
// deviation. ReduceDomains averages them back into the table the report
// prints.
func domainsSpecs(cfg SweepConfig) []Spec {
	dur := scaled(cfg, studyDuration, QuickDuration)
	seeds := scaled(cfg, 3, 1) // runs averaged per variant
	var specs []Spec
	for _, plane := range []Plane{PlaneFlat, PlanePerDomain} {
		variant := "global"
		if plane == PlanePerDomain {
			variant = "per-domain"
		}
		for s := 0; s < seeds; s++ {
			seed := cfg.Seed + int64(s)
			specs = append(specs, NewSpec("domains",
				fmt.Sprintf("domains/%s/seed=%d", variant, seed),
				seed, dur,
				func(m *Meter) (any, error) {
					wc := WorldConfig{Seed: seed, Traffic: CBR, Plane: plane}
					if plane == PlanePerDomain {
						// The assembler seeds domain d's algorithm RNG with
						// Seed+1+d; this study's recorded numbers were drawn
						// with seed+1 and seed+2 for domains 1 and 2.
						wc.Seed--
					}
					e := NewRunEngine(seed, 0)
					w := NewWorld(e, domainsTopology(e, domainsReceivers), wc)
					m.ObserveWorld(w)
					w.Run(dur)
					var rows []DomainRow
					doms, byDom := receiversByDomain(w.Build)
					for _, d := range doms {
						traces, optima, ok := sessionGroup(w, byDom[d])
						rows = append(rows, DomainRow{
							Variant:    variant,
							Domain:     fmt.Sprintf("domain %d (opt %d)", d, optima[0]),
							Deviation:  metrics.MeanRelativeDeviation(traces, optima, 0, dur),
							FinalOK:    ok,
							MaxChanges: metrics.MaxChanges(traces, 0, dur),
						})
					}
					return rows, nil
				}))
		}
	}
	return specs
}

// ReduceDomains merges per-seed DomainRows into one row per
// (variant, domain): deviations averaged, change counts maxed, and FinalOK
// true only when every seed finished within one layer of optimal.
func ReduceDomains(perSeed []DomainRow) []DomainRow {
	type key struct{ variant, domain string }
	var order []key
	acc := map[key]*DomainRow{}
	count := map[key]int{}
	for _, r := range perSeed {
		k := key{r.Variant, r.Domain}
		a, seen := acc[k]
		if !seen {
			order = append(order, k)
			cp := r
			acc[k] = &cp
			count[k] = 1
			continue
		}
		a.Deviation += r.Deviation
		a.FinalOK = a.FinalOK && r.FinalOK
		if r.MaxChanges > a.MaxChanges {
			a.MaxChanges = r.MaxChanges
		}
		count[k]++
	}
	var rows []DomainRow
	for _, k := range order {
		a := acc[k]
		a.Deviation /= float64(count[k])
		rows = append(rows, *a)
	}
	return rows
}

// DomainsTable renders the comparison.
func DomainsTable(rows []DomainRow) *Table {
	t := &Table{
		Title:  "Multi-domain control (paper Figure 3): independent per-domain agents vs one global agent",
		Header: []string{"variant", "domain", "rel deviation", "final within 1", "max changes"},
	}
	for _, r := range rows {
		t.AddRow(r.Variant, r.Domain, fmt.Sprintf("%.3f", r.Deviation), fmt.Sprintf("%v", r.FinalOK), fmt.Sprintf("%d", r.MaxChanges))
	}
	return t
}
