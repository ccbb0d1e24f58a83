package experiments

import (
	"fmt"

	"toposense/internal/metrics"
	"toposense/internal/sim"
	"toposense/internal/trace"
)

// StaleRow is one point of Figure 10: tracking quality on Topology A for a
// given information staleness and session size. Deviation is the paper's
// relative-deviation metric; MeanLoss and MaxChanges expose the degradation
// the deviation metric partially hides (over- and under-subscription cancel
// in time share, but receivers still suffer the loss of every late
// reaction).
type StaleRow struct {
	Staleness  sim.Time
	Receivers  int // total receivers in the session
	Deviation  float64
	MeanLoss   float64 // mean per-interval loss rate across receivers
	MaxChanges int     // busiest receiver's subscription changes
}

// Fig10Config parameterizes the stale-information experiment.
type Fig10Config struct {
	Seed      int64
	Duration  sim.Time   // 0 = the paper's 1200 s
	Traffic   Traffic    // zero = VBR(P=3), as in the paper
	PerSet    []int      // receivers per set; nil = {1, 2, 4} (2/4/8 total)
	Staleness []sim.Time // nil = {0, 2, ..., 18} seconds
}

func (c *Fig10Config) normalize() {
	d := PaperDefaults()
	d.Traffic = VBR3
	c.Duration = d.Dur(c.Duration)
	c.Traffic = d.Tr(c.Traffic)
	if c.PerSet == nil {
		c.PerSet = []int{1, 2, 4}
	}
	if c.Staleness == nil {
		for s := 0; s <= 18; s += 2 {
			c.Staleness = append(c.Staleness, sim.Time(s)*sim.Second)
		}
	}
}

// Fig10Specs enumerates Figure 10 ("Impact of stale information on Topology
// A subscription with VBR traffic") as independent runs, one per (set size,
// staleness) point: sweep the discovery tool's staleness and measure the
// mean relative deviation from the optimal subscription, plus the mean loss
// rate and change count the deviation metric partially hides.
func Fig10Specs(cfg Fig10Config) []Spec {
	cfg.normalize()
	var specs []Spec
	for _, per := range cfg.PerSet {
		for _, stale := range cfg.Staleness {
			specs = append(specs, NewSpec("10",
				fmt.Sprintf("fig10/rx=%d/stale=%.0fs", 2*per, stale.Seconds()),
				cfg.Seed, cfg.Duration,
				func(m *Meter) (any, error) {
					w := NewWorldA(per, 0, WorldConfig{Seed: cfg.Seed, Traffic: cfg.Traffic, Staleness: stale})
					m.ObserveWorld(w)
					sampler := trace.NewSampler(w.Engine, sim.Second)
					for i, rx := range w.Receivers[0] {
						rx := rx
						sampler.Probe(fmt.Sprintf("loss%d", i), func() float64 { return rx.LastLoss })
					}
					sampler.Start()
					w.Run(cfg.Duration)
					sampler.Stop()
					traces, optima := w.AllTraces()
					meanLoss := 0.0
					for i := range w.Receivers[0] {
						meanLoss += sampler.Series(fmt.Sprintf("loss%d", i)).Mean()
					}
					meanLoss /= float64(len(w.Receivers[0]))
					return []StaleRow{{
						Staleness:  stale,
						Receivers:  2 * per,
						Deviation:  metrics.MeanRelativeDeviation(traces, optima, 0, cfg.Duration),
						MeanLoss:   meanLoss,
						MaxChanges: metrics.MaxChanges(traces, 0, cfg.Duration),
					}}, nil
				}))
		}
	}
	return specs
}

// StaleTable renders Figure 10 rows.
func StaleTable(rows []StaleRow) *Table {
	t := &Table{
		Title:  "Figure 10: impact of stale topology/loss information on Topology A (VBR traffic)",
		Header: []string{"staleness (s)", "receivers", "rel deviation", "mean loss", "max changes"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.0f", r.Staleness.Seconds()),
			fmt.Sprintf("%d", r.Receivers),
			fmt.Sprintf("%.3f", r.Deviation),
			fmt.Sprintf("%.4f", r.MeanLoss),
			fmt.Sprintf("%d", r.MaxChanges),
		)
	}
	return t
}
