package experiments

import (
	"fmt"

	"toposense/internal/metrics"
)

// FairnessRow is one point of Figure 8: the mean relative deviation from
// the optimal subscription across all sessions, over the first and second
// halves of the run, plus how much of the shared link's capacity was
// actually used — the paper asks for bandwidth "fairly and fully
// utilized", and a scheme could be fair by starving everyone.
type FairnessRow struct {
	Sessions  int
	Traffic   string
	DevFirst  float64 // 0 – 600 s
	DevSecond float64 // 600 – 1200 s
	// Utilization is delivered bits on the shared link over the whole run
	// divided by capacity x duration.
	Utilization float64
}

// fig8Specs enumerates Figure 8 ("Fairness in Topology B") as independent
// runs, one per (session count, traffic model) point: the mean relative
// deviation from the optimal 4-layer subscription over both halves of the
// run. Small values in both windows mean TopoSense shares the link fairly
// regardless of when you look.
func fig8Specs(cfg SweepConfig) []Spec {
	dur := scaled(cfg, PaperDuration, QuickDuration)
	half := dur / 2
	var specs []Spec
	for _, sessions := range scaled(cfg, []int{2, 4, 8, 16}, []int{2, 4}) {
		for _, tr := range AllTraffic {
			specs = append(specs, NewSpec("8",
				fmt.Sprintf("fig8/sessions=%d/%s", sessions, tr.Name),
				cfg.Seed, dur,
				func(m *Meter) (any, error) {
					w, err := Scenario{WorldConfig: WorldConfig{Seed: cfg.Seed, Traffic: tr},
						Topo: fmt.Sprintf("b,sessions=%d", sessions), Duration: dur.Seconds()}.Assemble(m)
					if err != nil {
						return nil, err
					}
					w.Run(dur)
					traces, optima := w.AllTraces()
					shared := w.Build.Bottlenecks[0]
					capacityBits := shared.Bandwidth() * dur.Seconds()
					return []FairnessRow{{
						Sessions:    sessions,
						Traffic:     tr.Name,
						DevFirst:    metrics.MeanRelativeDeviation(traces, optima, 0, half),
						DevSecond:   metrics.MeanRelativeDeviation(traces, optima, half, dur),
						Utilization: float64(shared.Stats().TxBytes) * 8 / capacityBits,
					}}, nil
				}))
		}
	}
	return specs
}

// FairnessTable renders Figure 8 rows.
func FairnessTable(rows []FairnessRow) *Table {
	t := &Table{
		Title:  "Figure 8: inter-session fairness in Topology B (mean relative deviation from optimal)",
		Header: []string{"sessions", "traffic", "dev 0-1/2", "dev 1/2-end", "link utilization"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Sessions),
			r.Traffic,
			fmt.Sprintf("%.3f", r.DevFirst),
			fmt.Sprintf("%.3f", r.DevSecond),
			fmt.Sprintf("%.1f%%", r.Utilization*100),
		)
	}
	return t
}
