package experiments

import (
	"fmt"

	"toposense/internal/metrics"
	"toposense/internal/sim"
)

// Fig7Config parameterizes the Topology B stability experiment.
type Fig7Config struct {
	Seed     int64
	Duration sim.Time  // 0 = the paper's 1200 s
	Sessions []int     // nil = {2, 4, 8, 16}
	Traffic  []Traffic // nil = AllTraffic
	Shards   int       // engine worker count; <= 1 = single-threaded
}

func (c *Fig7Config) normalize() {
	d := PaperDefaults()
	c.Duration = d.Dur(c.Duration)
	c.Traffic = d.TrafficSweep(c.Traffic)
	if c.Sessions == nil {
		c.Sessions = []int{2, 4, 8, 16}
	}
}

// Fig7Specs enumerates Figure 7 ("Stability in Topology B") as independent
// runs, one per (session count, traffic model) point: N sessions share one
// link sized so each can take 4 layers; each run reports the busiest
// session's subscription-change count and mean time between changes.
func Fig7Specs(cfg Fig7Config) []Spec {
	cfg.normalize()
	var specs []Spec
	for _, sessions := range cfg.Sessions {
		for _, tr := range cfg.Traffic {
			specs = append(specs, NewSpec("7",
				fmt.Sprintf("fig7/sessions=%d/%s", sessions, tr.Name),
				cfg.Seed, cfg.Duration,
				func(m *Meter) (any, error) {
					w := NewWorldB(sessions, cfg.Shards, WorldConfig{Seed: cfg.Seed, Traffic: tr})
					m.ObserveWorld(w)
					w.Run(cfg.Duration)
					traces, _ := w.AllTraces()
					return []StabilityRow{{
						X:           sessions,
						Traffic:     tr.Name,
						MaxChanges:  metrics.MaxChanges(traces, 0, cfg.Duration),
						MeanBetween: metrics.MeanTimeBetweenChangesOfBusiest(traces, 0, cfg.Duration),
					}}, nil
				}))
		}
	}
	return specs
}
