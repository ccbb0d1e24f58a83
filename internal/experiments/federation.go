package experiments

import (
	"fmt"
	"sort"

	"toposense/internal/metrics"
	"toposense/internal/sim"
	"toposense/internal/topology"
)

// This file is the hierarchical-control-plane experiment: the same
// tiered-Internet topology run twice, once under one flat controller seeing
// every receiver, once federated — scoped per-domain leaf controllers under
// a federation parent that reconciles per-domain session budgets against
// each domain's border-link bandwidth. The two claims measured: per-domain
// budgets converge (churn stops well before the run ends) and quality
// matches the flat controller per domain, with the leaves provably never
// consuming feedback from outside their own domain.

// federationTopo is the experiment's tiered-Internet instance, seeded by the
// sweep: two tier-1 domains behind ~2 Mbit/s border links (tight enough that
// the derived domain ceilings sit inside the 6-layer stack), three tier-2
// leaves each behind ~600 Kbit/s last hops, two receivers per leaf.
const federationTopo = "tiered,seed=%d,fanout=2:3,bw=2e6:600e3,rxleaf=2"

// FederationRow is one (variant, domain) outcome.
type FederationRow struct {
	Variant   string  `json:"variant"` // "flat" or "federated"
	Domain    int     `json:"domain"`  // -1 = all domains together
	Receivers int     `json:"receivers"`
	MeanDev   float64 `json:"mean_rel_deviation"`
	FinalOK   bool    `json:"final_within_1"` // every receiver within 1 layer of optimal at the end

	// Federated-only: the parent's view of the domain.
	Ceiling       int     `json:"ceiling,omitempty"`        // border-bandwidth level ceiling
	EndBudget     int     `json:"end_budget,omitempty"`     // session-0 budget in force at the end
	BudgetChanges int64   `json:"budget_changes,omitempty"` // budget entries pushed over the run
	LastChangeS   float64 `json:"last_change_s,omitempty"`  // when the last budget push happened
	Converged     bool    `json:"converged,omitempty"`      // no budget churn in the final third
	CrossDomain   int     `json:"cross_domain_regs"`        // receivers registered outside their leaf's scope (must be 0)
	Capped        int64   `json:"capped_suggestions,omitempty"`
}

// receiversByDomain splits session-0 receiver indices by domain label, in
// ascending domain order.
func receiversByDomain(b *topology.Build) (doms []int, byDom map[int][]int) {
	byDom = make(map[int][]int)
	for i, node := range b.Receivers[0] {
		d := b.Domains[node.ID]
		if _, ok := byDom[d]; !ok {
			doms = append(doms, d)
		}
		byDom[d] = append(byDom[d], i)
	}
	sort.Ints(doms)
	return doms, byDom
}

// sessionGroup picks the session-0 receivers idx out of a finished world:
// their traces and optima, and whether every one of them ended within one
// layer of its optimum.
func sessionGroup(w *World, idx []int) (traces []*metrics.Trace, optima []int, finalOK bool) {
	finalOK = true
	for _, i := range idx {
		traces = append(traces, w.Traces[0][i])
		optima = append(optima, w.Optimal[0][i])
		if diff := w.Level(0, i) - w.Optimal[0][i]; diff < -1 || diff > 1 {
			finalOK = false
		}
	}
	return traces, optima, finalOK
}

// federationSpecs enumerates the experiment: one flat run and one federated
// run of CBR sessions on the identical topology and seed.
func federationSpecs(cfg SweepConfig) []Spec {
	dur := scaled(cfg, studyDuration, QuickDuration)
	var specs []Spec
	for _, plane := range []Plane{PlaneFlat, PlaneFederated} {
		variant := plane.String()
		specs = append(specs, NewSpec("fig_federation",
			fmt.Sprintf("fig_federation/%s/%s/seed=%d", variant, CBR.Name, cfg.Seed),
			cfg.Seed, dur,
			func(m *Meter) (any, error) {
				w, err := Scenario{WorldConfig: WorldConfig{Seed: cfg.Seed, Traffic: CBR, Plane: plane},
					Topo: fmt.Sprintf(federationTopo, cfg.Seed), Duration: dur.Seconds()}.Assemble(m)
				if err != nil {
					return nil, err
				}
				w.Run(dur)
				return federationRows(w, variant, dur), nil
			}))
	}
	return specs
}

// federationRows reduces a finished run to its all-domains row followed by
// one row per domain; under the federated plane each domain row carries the
// parent's view of it and the all row their sums.
func federationRows(w *World, variant string, dur sim.Time) []FederationRow {
	doms, byDom := receiversByDomain(w.Build)
	quality := func(d int, idx []int) FederationRow {
		traces, optima, ok := sessionGroup(w, idx)
		return FederationRow{Variant: variant, Domain: d, Receivers: len(idx), FinalOK: ok,
			MeanDev: metrics.MeanRelativeDeviation(traces, optima, 0, dur)}
	}
	all := make([]int, len(w.Traces[0]))
	for i := range all {
		all[i] = i
	}
	rows := []FederationRow{quality(-1, all)}
	rows[0].Converged = w.Parent != nil
	for _, d := range doms {
		row := quality(d, byDom[d])
		if k := sort.SearchInts(w.Scopes, d); w.Parent != nil && k < len(w.Scopes) && w.Scopes[k] == d {
			changes, last := w.Parent.ChangesFor(d)
			row.Ceiling = w.Parent.Ceiling(d)
			row.EndBudget = w.Parent.Budget(d, 0)
			row.BudgetChanges = changes
			row.LastChangeS = last.Seconds()
			// Converged: budgets were granted and none moved in the
			// final third of the run.
			row.Converged = changes > 0 && last <= dur-dur/3
			row.Capped = w.Controllers[k].SuggestionsCapped
			// Domain isolation: every receiver the leaf has registered
			// lies inside its own domain.
			row.CrossDomain = w.CrossDomainRegs(k)
			rows[0].BudgetChanges += changes
			rows[0].Capped += row.Capped
			rows[0].CrossDomain += row.CrossDomain
		}
		// The all-domains row converged only if every domain did.
		rows[0].Converged = rows[0].Converged && row.Converged
		rows = append(rows, row)
	}
	return rows
}

// FederationTable renders the comparison.
func FederationTable(rows []FederationRow) *Table {
	t := &Table{
		Title: "Hierarchical control plane: per-domain leaf controllers under a federation parent vs one flat controller",
		Header: []string{"variant", "domain", "receivers", "rel deviation", "final within 1",
			"ceiling", "end budget", "budget changes", "last change", "converged", "cross-domain regs", "capped"},
	}
	for _, r := range rows {
		dom := "all"
		if r.Domain >= 0 {
			dom = fmt.Sprintf("%d", r.Domain)
		}
		ceiling, budget, changes, last, conv, capped := "-", "-", "-", "-", "-", "-"
		if r.Variant == "federated" {
			changes = fmt.Sprintf("%d", r.BudgetChanges)
			conv = fmt.Sprintf("%v", r.Converged)
			capped = fmt.Sprintf("%d", r.Capped)
			if r.Domain >= 0 {
				ceiling = fmt.Sprintf("%d", r.Ceiling)
				budget = fmt.Sprintf("%d", r.EndBudget)
				last = fmt.Sprintf("%.0f s", r.LastChangeS)
			}
		}
		t.AddRow(r.Variant, dom, fmt.Sprintf("%d", r.Receivers),
			fmt.Sprintf("%.3f", r.MeanDev), fmt.Sprintf("%v", r.FinalOK),
			ceiling, budget, changes, last, conv, fmt.Sprintf("%d", r.CrossDomain), capped)
	}
	return t
}
