package experiments

import (
	"strings"
	"testing"

	"toposense/internal/sim"
	"toposense/internal/topology"
)

// TestScenarioValidate is the one rejection table's test: every row of
// Scenario.Validate and of the plane gate fires with an error naming the flag
// to change (and, for the model pairs, the fallback), and every other
// combination — in particular -shards with -aggregate, -failat with
// -aggregate, -shards with -federate, and -churn with -shards, -failat or
// -federate — passes.
func TestScenarioValidate(t *testing.T) {
	cases := []struct {
		name  string
		edit  func(s *Scenario)
		frags []string // nil = must validate; else fragments the error must contain
	}{
		{name: "default run", edit: func(s *Scenario) {}},
		{name: "serial faults", edit: func(s *Scenario) { s.FailAt = 200 }},
		{name: "sharded clean", edit: func(s *Scenario) { s.Shards = 4 }},
		{name: "aggregate alone", edit: func(s *Scenario) { s.Aggregate = true }},
		{name: "federate alone", edit: func(s *Scenario) { s.Topo, s.Plane = "tree", PlaneFederated }},
		{name: "per-domain alone", edit: func(s *Scenario) { s.Topo, s.Plane = "tree", PlanePerDomain }},
		{name: "sharded aggregate", edit: func(s *Scenario) { s.Shards, s.Aggregate = 4, true }},
		{name: "sharded federate", edit: func(s *Scenario) { s.Topo, s.Shards, s.Plane = "tree", 4, PlaneFederated }},
		{name: "faults with aggregate", edit: func(s *Scenario) { s.FailAt, s.Aggregate = 200, true }},
		{name: "churn alone", edit: func(s *Scenario) { s.Churn = 4 }},
		{name: "churn sharded", edit: func(s *Scenario) { s.Shards, s.Churn = 4, 4 }},
		{name: "churn with faults", edit: func(s *Scenario) { s.FailAt, s.Churn = 200, 4 }},
		{name: "churn with aggregate", edit: func(s *Scenario) { s.Aggregate, s.Churn = true, 4 }},
		{name: "churn federated", edit: func(s *Scenario) { s.Topo, s.Plane, s.Churn = "tree", PlaneFederated, 4 }},
		{name: "churn federated sharded", edit: func(s *Scenario) { s.Topo, s.Shards, s.Plane, s.Churn = "tree", 4, PlaneFederated, 4 }},
		{name: "rlm alone", edit: func(s *Scenario) { s.Plane = PlaneRLM }},
		{name: "rlm churn", edit: func(s *Scenario) { s.Plane, s.Churn = PlaneRLM, 4 }},
		{name: "flat explain", edit: func(s *Scenario) { s.Explain = true }},
		{name: "family name alone", edit: func(s *Scenario) { s.Topo = "tree" }},
		{name: "stale and probed", edit: func(s *Scenario) { s.Staleness, s.ProbeDiscovery = 6*sim.Second, true }},

		{name: "faults on one worker", edit: func(s *Scenario) { s.Shards, s.FailAt = 1, 200 },
			frags: []string{"-failat", "-shards", "serial engine"}},
		{name: "faults sharded", edit: func(s *Scenario) { s.Shards, s.FailAt = 4, 200 },
			frags: []string{"-failat", "-shards", "serial engine"}},
		{name: "faults sharded small failat", edit: func(s *Scenario) { s.Shards, s.FailAt = 8, 0.5 },
			frags: []string{"-failat 0.5", "-shards 8", "serial engine"}},
		{name: "faults federated", edit: func(s *Scenario) { s.FailAt, s.Plane = 200, PlaneFederated },
			frags: []string{"-failat", "-federate", "drop -federate"}},
		{name: "federate with aggregate", edit: func(s *Scenario) { s.Aggregate, s.Plane = true, PlaneFederated },
			frags: []string{"-federate", "-aggregate", "drop -aggregate"}},
		{name: "negative churn", edit: func(s *Scenario) { s.Churn = -1 },
			frags: []string{"-churn -1", "positive"}},
		{name: "everything at once", edit: func(s *Scenario) { s.Shards, s.FailAt, s.Aggregate, s.Plane = 4, 200, true, PlaneFederated },
			frags: []string{"-failat"}},
		{name: "zero duration", edit: func(s *Scenario) { s.Duration = 0 },
			frags: []string{"-duration 0", "positive"}},
		{name: "negative duration", edit: func(s *Scenario) { s.Duration = -5 },
			frags: []string{"-duration -5"}},
		{name: "negative staleness", edit: func(s *Scenario) { s.Staleness = -3 * sim.Second },
			frags: []string{"-staleness -3"}},
		{name: "faults without outage", edit: func(s *Scenario) { s.FailAt, s.Outage = 200, 0 },
			frags: []string{"-outage", "-failat"}},
		{name: "unknown generator", edit: func(s *Scenario) { s.Topo = "bogus" },
			frags: []string{"-topo", "unknown generator"}},
		{name: "unknown topology key", edit: func(s *Scenario) { s.Topo = "tree,bogus=1" },
			frags: []string{"-topo", "no key"}},
		{name: "malformed topology value", edit: func(s *Scenario) { s.Topo = "tree,depth=x" },
			frags: []string{"-topo", "depth"}},
		{name: "empty topology", edit: func(s *Scenario) { s.Topo = "" },
			frags: []string{"-topo"}},
		{name: "rlm aggregate", edit: func(s *Scenario) { s.Plane, s.Aggregate = PlaneRLM, true },
			frags: []string{"-aggregate", "-algo rlm"}},
		{name: "rlm explain", edit: func(s *Scenario) { s.Plane, s.Explain = PlaneRLM, true },
			frags: []string{"-algo rlm", "-explain"}},
		{name: "federated explain", edit: func(s *Scenario) { s.Topo, s.Plane, s.Explain = "tiered", PlaneFederated, true },
			frags: []string{"-federate", "-explain"}},
		{name: "per-domain explain", edit: func(s *Scenario) { s.Topo, s.Plane, s.Explain = "tree", PlanePerDomain, true },
			frags: []string{"per-domain", "-explain"}},
		{name: "faults per-domain", edit: func(s *Scenario) { s.Topo, s.FailAt, s.Plane = "tree", 200, PlanePerDomain },
			frags: []string{"-failat", "per-domain"}},
		{name: "federate unlabelled", edit: func(s *Scenario) { s.Plane = PlaneFederated },
			frags: []string{"-federate", "-topo", "tree"}},
		{name: "federate on mesh", edit: func(s *Scenario) { s.Topo, s.Plane = "mesh", PlaneFederated },
			frags: []string{"-federate", "-topo"}},
		{name: "per-domain unlabelled", edit: func(s *Scenario) { s.Topo, s.Plane = "b", PlanePerDomain },
			frags: []string{"per-domain", "-topo"}},
	}
	for _, c := range cases {
		s := DefaultScenario()
		c.edit(&s)
		err := s.Validate()
		if (err != nil) != (c.frags != nil) {
			t.Errorf("%s: Validate(%+v) = %v, want error %v", c.name, s, err, c.frags != nil)
			continue
		}
		for _, frag := range c.frags {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: error %q does not mention %q", c.name, err, frag)
			}
		}
		// Assemble goes through the same gate: a rejected scenario never
		// builds an engine.
		if err != nil {
			if w, aerr := s.Assemble(&Meter{}); w != nil || aerr == nil || aerr.Error() != err.Error() {
				t.Errorf("%s: Assemble = (%v, %v), want (nil, %v)", c.name, w, aerr, err)
			}
		}
	}
}

// TestValidateAgreesWithAssemble: Validate accepts exactly the scenarios
// Assemble can build, for every registry family (at its default instance),
// every control plane, with and without aggregation and explain — so a run
// description that passes the usage gate never fails after its engine and
// topology exist.
func TestValidateAgreesWithAssemble(t *testing.T) {
	for _, family := range topology.Names() {
		for _, plane := range []Plane{PlaneFlat, PlanePerDomain, PlaneFederated, PlaneRLM} {
			for _, agg := range []bool{false, true} {
				for _, explain := range []bool{false, true} {
					s := DefaultScenario()
					s.Topo, s.Plane, s.Aggregate, s.Explain = family, plane, agg, explain
					verr := s.Validate()
					_, aerr := s.Assemble(&Meter{})
					if (verr == nil) != (aerr == nil) {
						t.Errorf("%s %v aggregate=%v explain=%v: Validate = %v, Assemble = %v", family, plane, agg, explain, verr, aerr)
					}
				}
			}
		}
	}
}
