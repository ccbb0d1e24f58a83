package experiments

import (
	"fmt"

	"toposense/internal/metrics"
)

// BaselineRow compares TopoSense and RLM on the same scenario.
type BaselineRow struct {
	Scenario   string
	Algo       string // "TopoSense" | "RLM"
	Deviation  float64
	MaxChanges int
}

// The baseline scenarios: Topology A with baselinePerSet receivers per set
// and Topology B with baselineSessions sessions.
const (
	baselinePerSet   = 4
	baselineSessions = 4
)

// baselineSpecs enumerates the TopoSense-vs-RLM comparison as independent
// runs, one per (topology, traffic, algorithm) combination. The shape the
// paper argues for: topology-aware coordination tracks the optimum at least
// as closely with fewer subscription changes, because receivers never probe
// a bottleneck another receiver already mapped.
func baselineSpecs(cfg SweepConfig) []Spec {
	dur := scaled(cfg, PaperDuration, QuickDuration)
	var specs []Spec
	add := func(scenario string, tr Traffic, plane Plane) {
		algo := "TopoSense"
		if plane == PlaneRLM {
			algo = "RLM"
		}
		scenarioName, topo := fmt.Sprintf("Topology %s", scenario), fmt.Sprintf("b,sessions=%d", baselineSessions)
		if scenario == "A" {
			scenarioName += fmt.Sprintf(" (%d receivers)", 2*baselinePerSet)
			topo = fmt.Sprintf("a,rxset=%d", baselinePerSet)
		} else {
			scenarioName += fmt.Sprintf(" (%d sessions)", baselineSessions)
		}
		scenarioName += ", " + tr.Name
		specs = append(specs, NewSpec("baseline",
			fmt.Sprintf("baseline/topo=%s/%s/%s", scenario, tr.Name, algo),
			cfg.Seed, dur,
			func(m *Meter) (any, error) {
				w, err := Scenario{WorldConfig: WorldConfig{Seed: cfg.Seed, Traffic: tr, Plane: plane}, Topo: topo, Duration: dur.Seconds()}.Assemble(m)
				if err != nil {
					return nil, err
				}
				w.Run(dur)
				traces, optima := w.AllTraces()
				return []BaselineRow{{
					Scenario:   scenarioName,
					Algo:       algo,
					Deviation:  metrics.MeanRelativeDeviation(traces, optima, 0, dur),
					MaxChanges: metrics.MaxChanges(traces, 0, dur),
				}}, nil
			}))
	}
	for _, scenario := range []string{"A", "B"} {
		for _, tr := range []Traffic{CBR, VBR3} {
			add(scenario, tr, PlaneFlat)
			add(scenario, tr, PlaneRLM)
		}
	}
	return specs
}

// BaselineTable renders the comparison.
func BaselineTable(rows []BaselineRow) *Table {
	t := &Table{
		Title:  "Baseline comparison: TopoSense vs receiver-driven (RLM-style)",
		Header: []string{"scenario", "algorithm", "mean relative deviation", "max changes"},
	}
	for _, r := range rows {
		t.AddRow(r.Scenario, r.Algo, fmt.Sprintf("%.3f", r.Deviation), fmt.Sprintf("%d", r.MaxChanges))
	}
	return t
}
