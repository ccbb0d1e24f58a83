package experiments

import (
	"fmt"

	"toposense/internal/metrics"
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

// domainsSpecs enumerates both control architectures on the domains
// family's two-domain tree — one global agent at the source seeing
// everything, or one agent per domain stationed at its gateway and seeing
// only its own subtree — as one CBR run per (variant, seed); each run
// reports its own per-domain DomainRows with that seed's deviation.
// ReduceDomains averages them back into the table the report prints.
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
					w, err := Scenario{WorldConfig: WorldConfig{Seed: seed, Traffic: CBR, Plane: plane},
						Topo: "domains", Duration: dur.Seconds()}.Assemble(m)
					if err != nil {
						return nil, err
					}
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
