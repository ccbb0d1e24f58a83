package experiments

import (
	"fmt"

	"toposense/internal/metrics"
	"toposense/internal/sim"
)

// BaselineRow compares TopoSense and RLM on the same scenario.
type BaselineRow struct {
	Scenario   string
	Algo       string // "TopoSense" | "RLM"
	Deviation  float64
	MaxChanges int
}

// BaselineConfig parameterizes the comparison.
type BaselineConfig struct {
	Seed     int64
	Duration sim.Time  // 0 = the paper's 1200 s
	Traffics []Traffic // nil = {CBR, VBR(P=3)}
	// Topology A set size and Topology B session count.
	PerSet   int // 0 = 4 (8 receivers)
	Sessions int // 0 = 4
}

func (c *BaselineConfig) normalize() {
	d := PaperDefaults()
	c.Duration = d.Dur(c.Duration)
	if c.Traffics == nil {
		c.Traffics = []Traffic{CBR, VBR3}
	}
	if c.PerSet == 0 {
		c.PerSet = 4
	}
	if c.Sessions == 0 {
		c.Sessions = 4
	}
}

// BaselineSpecs enumerates the TopoSense-vs-RLM comparison as independent
// runs, one per (topology, traffic, algorithm) combination. The shape the
// paper argues for: topology-aware coordination tracks the optimum at least
// as closely with fewer subscription changes, because receivers never probe
// a bottleneck another receiver already mapped.
func BaselineSpecs(cfg BaselineConfig) []Spec {
	cfg.normalize()
	var specs []Spec
	add := func(scenario string, tr Traffic, plane Plane) {
		algo := "TopoSense"
		if plane == PlaneRLM {
			algo = "RLM"
		}
		scenarioName := fmt.Sprintf("Topology %s", scenario)
		if scenario == "A" {
			scenarioName += fmt.Sprintf(" (%d receivers)", 2*cfg.PerSet)
		} else {
			scenarioName += fmt.Sprintf(" (%d sessions)", cfg.Sessions)
		}
		scenarioName += ", " + tr.Name
		specs = append(specs, NewSpec("baseline",
			fmt.Sprintf("baseline/topo=%s/%s/%s", scenario, tr.Name, algo),
			cfg.Seed, cfg.Duration,
			func(m *Meter) (any, error) {
				wc := WorldConfig{Seed: cfg.Seed, Traffic: tr, Plane: plane}
				var w *World
				if scenario == "A" {
					w = NewWorldA(cfg.PerSet, 0, wc)
				} else {
					w = NewWorldB(cfg.Sessions, 0, wc)
				}
				m.ObserveWorld(w)
				w.Run(cfg.Duration)
				traces, optima := w.AllTraces()
				return []BaselineRow{{
					Scenario:   scenarioName,
					Algo:       algo,
					Deviation:  metrics.MeanRelativeDeviation(traces, optima, 0, cfg.Duration),
					MaxChanges: metrics.MaxChanges(traces, 0, cfg.Duration),
				}}, nil
			}))
	}
	for _, scenario := range []string{"A", "B"} {
		for _, tr := range cfg.Traffics {
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
