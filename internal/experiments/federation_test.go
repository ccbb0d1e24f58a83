package experiments

import (
	"fmt"
	"strings"
	"testing"

	"toposense/internal/sim"
	"toposense/internal/topology"
)

// TestFederationRegistered pins the registry wiring cmd/topobench depends on.
func TestFederationRegistered(t *testing.T) {
	ex, ok := Lookup("fig_federation")
	if !ok {
		t.Fatal("fig_federation not in the registry")
	}
	specs := ex.Specs(SweepConfig{Seed: 1, Quick: true})
	if len(specs) != 2 {
		t.Fatalf("fig_federation quick sweep has %d specs, want 2 (flat + federated)", len(specs))
	}
	for _, s := range specs {
		if s.Duration != QuickDuration {
			t.Errorf("%s: quick duration %v, want %v", s.Name, s.Duration, QuickDuration)
		}
	}
}

// TestFederationConvergenceAndIsolation is the tentpole acceptance check:
// on the tiered topology every domain's budget converges (churn stops well
// before the run ends), quality stays within one layer of optimal, and no
// leaf controller ever registers a receiver outside its own domain.
func TestFederationConvergenceAndIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("full flat + federated runs")
	}
	rows := gather[FederationRow](t, quickSpecs(t, "fig_federation"))

	var flat, fed int
	for _, r := range rows {
		switch r.Variant {
		case "flat":
			flat++
		case "federated":
			fed++
		}
		if !r.FinalOK {
			t.Errorf("%s domain %d: a receiver ended more than one layer from optimal", r.Variant, r.Domain)
		}
		if r.CrossDomain != 0 {
			t.Errorf("%s domain %d: %d receivers registered outside their leaf's scope",
				r.Variant, r.Domain, r.CrossDomain)
		}
		if r.Variant == "federated" && r.Domain >= 0 {
			if r.BudgetChanges == 0 {
				t.Errorf("domain %d: no budgets were ever pushed", r.Domain)
			}
			if !r.Converged {
				t.Errorf("domain %d: budget churn did not stop (last change %.0f s of %.0f s)",
					r.Domain, r.LastChangeS, QuickDuration.Seconds())
			}
			if r.EndBudget < 1 || r.EndBudget > r.Ceiling {
				t.Errorf("domain %d: end budget %d outside [1, ceiling %d]", r.Domain, r.EndBudget, r.Ceiling)
			}
			if r.Capped == 0 {
				t.Errorf("domain %d: the budget never capped a suggestion — it is not being enforced", r.Domain)
			}
		}
	}
	if flat < 2 || fed < 2 {
		t.Fatalf("got %d flat and %d federated rows, want at least an all-row plus per-domain rows each", flat, fed)
	}
}

// fedCanonical reduces a federated run to its model-visible outcomes: every
// receiver's full subscription trace, the parent's budget state per domain,
// each leaf's export/cap counters, and the events-fired meter.
func fedCanonical(w *World) string {
	var sb strings.Builder
	traces, optima := w.AllTraces()
	for i, tr := range traces {
		fmt.Fprintf(&sb, "rx %d opt %d:", i, optima[i])
		for _, p := range tr.Points() {
			fmt.Fprintf(&sb, " %d@%d", p.Level, int64(p.At))
		}
		sb.WriteByte('\n')
	}
	for _, l := range w.Leaves {
		d := l.Domain
		changes, last := w.Parent.ChangesFor(d)
		fmt.Fprintf(&sb, "dom %d budget %d ceiling %d learned %d changes %d last %d exports %d caps %d passes %d\n",
			d, w.Parent.Budget(d, 0), w.Parent.Ceiling(d), w.Parent.Learned(d),
			changes, int64(last), l.ExportsSent, l.CapsApplied, l.Controller().StepsRun)
	}
	fmt.Fprintf(&sb, "exportsRecv %d reconciles %d\n", w.Parent.ExportsRecv, w.Parent.Reconciles)
	fmt.Fprintf(&sb, "fired %d\n", w.Engine.Fired())
	return sb.String()
}

// TestFederationShardEquivalence pins the federation determinism contract:
// the hierarchical control plane on the sharded engine must produce
// byte-identical receiver traces and budget sequences to the serial engine.
// Exports are consumed in node context and the reconcile pass runs as a
// stop-the-world global event, so nothing may depend on the worker count.
func TestFederationShardEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the federated world three times")
	}
	const spec = "tiered,fanout=2:2,rxleaf=2"
	const dur = 60 * sim.Second
	run := func(shards int) string {
		w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 1, Traffic: CBR, Plane: PlaneFederated},
			Topo: spec, Shards: shards, Duration: dur.Seconds()})
		w.Run(dur)
		return fedCanonical(w)
	}
	serial := run(0)
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != serial {
			t.Errorf("shards=%d diverges from the serial engine\n%s", shards, firstDiff(serial, got))
		}
	}
}

// TestFedWorldRejects pins AssembleWorld's input contract for the scoped
// planes: no domain labels and the -aggregate combination are errors, not
// silent fallbacks, and NewWorld — the must-form — panics on them.
func TestFedWorldRejects(t *testing.T) {
	e := NewRunEngine(1, 0)
	_, tcfg, err := topology.Parse("tiered,fanout=2:2,rxleaf=2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := topology.Generate(e, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, plane := range []Plane{PlaneFederated, PlanePerDomain, PlaneRLM} {
		if _, err := AssembleWorld(e, b, WorldConfig{Seed: 1, Plane: plane, Aggregate: true}); err == nil {
			t.Errorf("%v plane accepted Aggregate: true", plane)
		}
	}
	saved := b.Domains
	b.Domains = nil
	for _, plane := range []Plane{PlaneFederated, PlanePerDomain} {
		if _, err := AssembleWorld(e, b, WorldConfig{Seed: 1, Plane: plane}); err == nil {
			t.Errorf("%v plane accepted a build without domain labels", plane)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewWorld did not panic on a configuration AssembleWorld rejects")
			}
		}()
		NewWorld(e, b, WorldConfig{Seed: 1, Plane: PlaneFederated})
	}()
	b.Domains = saved
}
