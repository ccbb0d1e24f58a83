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

// fig10Specs enumerates Figure 10 ("Impact of stale information on Topology
// A subscription with VBR traffic") as independent runs, one per (set size,
// staleness) point: sweep the discovery tool's staleness and measure the
// mean relative deviation from the optimal subscription, plus the mean loss
// rate and change count the deviation metric partially hides. The paper
// runs VBR(P=3) traffic.
func fig10Specs(cfg SweepConfig) []Spec {
	const s = sim.Second
	dur := scaled(cfg, PaperDuration, QuickDuration)
	perSets := scaled(cfg, []int{1, 2, 4}, []int{1, 2}) // receivers per set
	staleness := scaled(cfg,
		[]sim.Time{0, 2 * s, 4 * s, 6 * s, 8 * s, 10 * s, 12 * s, 14 * s, 16 * s, 18 * s},
		[]sim.Time{0, 4 * s, 8 * s})
	var specs []Spec
	for _, per := range perSets {
		for _, stale := range staleness {
			specs = append(specs, NewSpec("10",
				fmt.Sprintf("fig10/rx=%d/stale=%.0fs", 2*per, stale.Seconds()),
				cfg.Seed, dur,
				func(m *Meter) (any, error) {
					w, err := Scenario{WorldConfig: WorldConfig{Seed: cfg.Seed, Traffic: VBR3, Staleness: stale},
						Topo: fmt.Sprintf("a,rxset=%d", per), Duration: dur.Seconds()}.Assemble(m)
					if err != nil {
						return nil, err
					}
					sampler := trace.NewSampler(w.Engine, sim.Second)
					for i, rx := range w.Receivers[0] {
						rx := rx
						sampler.Probe(fmt.Sprintf("loss%d", i), func() float64 { return rx.LastLoss })
					}
					sampler.Start()
					w.Run(dur)
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
						Deviation:  metrics.MeanRelativeDeviation(traces, optima, 0, dur),
						MeanLoss:   meanLoss,
						MaxChanges: metrics.MaxChanges(traces, 0, dur),
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
