package experiments

import (
	"fmt"

	"toposense/internal/metrics"
	"toposense/internal/sim"
)

// StabilityRow is one point of Figure 6 or 7: for a receiver/session count
// and traffic model, the maximum number of subscription changes by any
// receiver over the run and the mean time between successive changes for
// that receiver.
type StabilityRow struct {
	X           int    // receivers in the session (Fig 6) or sessions (Fig 7)
	Traffic     string // CBR / VBR(P=3) / VBR(P=6)
	MaxChanges  int
	MeanBetween sim.Time
}

// fig6Specs enumerates Figure 6 ("Stability in Topology A") as independent
// runs, one per (receiver-set size, traffic model) point; each run yields
// one StabilityRow for the busiest receiver.
func fig6Specs(cfg SweepConfig) []Spec {
	dur := scaled(cfg, PaperDuration, QuickDuration)
	perSets := scaled(cfg, []int{1, 2, 4, 8}, []int{1, 2}) // receivers per set
	var specs []Spec
	for _, per := range perSets {
		for _, tr := range AllTraffic {
			specs = append(specs, NewSpec("6",
				fmt.Sprintf("fig6/rx=%d/%s", 2*per, tr.Name),
				cfg.Seed, dur,
				func(m *Meter) (any, error) {
					w := NewWorldA(per, cfg.Shards, WorldConfig{Seed: cfg.Seed, Traffic: tr})
					m.ObserveWorld(w)
					w.Run(dur)
					traces, _ := w.AllTraces()
					return []StabilityRow{{
						X:           2 * per, // total receivers in the session
						Traffic:     tr.Name,
						MaxChanges:  metrics.MaxChanges(traces, 0, dur),
						MeanBetween: metrics.MeanTimeBetweenChangesOfBusiest(traces, 0, dur),
					}}, nil
				}))
		}
	}
	return specs
}

// StabilityTable renders stability rows as the two panels the paper plots.
func StabilityTable(title, xLabel string, rows []StabilityRow) *Table {
	t := &Table{
		Title:  title,
		Header: []string{xLabel, "traffic", "max changes", "mean time between changes (s)"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.X),
			r.Traffic,
			fmt.Sprintf("%d", r.MaxChanges),
			fmt.Sprintf("%.1f", r.MeanBetween.Seconds()),
		)
	}
	return t
}
