package experiments

import (
	"fmt"

	"toposense/internal/metrics"
)

// fig7Specs enumerates Figure 7 ("Stability in Topology B") as independent
// runs, one per (session count, traffic model) point: N sessions share one
// link sized so each can take 4 layers; each run reports the busiest
// session's subscription-change count and mean time between changes.
func fig7Specs(cfg SweepConfig) []Spec {
	dur := scaled(cfg, PaperDuration, QuickDuration)
	var specs []Spec
	for _, sessions := range scaled(cfg, []int{2, 4, 8, 16}, []int{2, 4}) {
		for _, tr := range AllTraffic {
			specs = append(specs, NewSpec("7",
				fmt.Sprintf("fig7/sessions=%d/%s", sessions, tr.Name),
				cfg.Seed, dur,
				func(m *Meter) (any, error) {
					w := NewWorldB(sessions, cfg.Shards, WorldConfig{Seed: cfg.Seed, Traffic: tr})
					m.ObserveWorld(w)
					w.Run(dur)
					traces, _ := w.AllTraces()
					return []StabilityRow{{
						X:           sessions,
						Traffic:     tr.Name,
						MaxChanges:  metrics.MaxChanges(traces, 0, dur),
						MeanBetween: metrics.MeanTimeBetweenChangesOfBusiest(traces, 0, dur),
					}}, nil
				}))
		}
	}
	return specs
}
