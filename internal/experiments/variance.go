package experiments

import (
	"fmt"
	"math"

	"toposense/internal/metrics"
	"toposense/internal/sim"
)

// Seed-variance study: every number in the reproduction is deterministic
// given a seed, so the honest error bars come from re-running across seeds.
// This runner repeats the headline fairness experiment (Figure 8's 4-session
// point) across seeds and reports mean, standard deviation and range.

// VarianceRow summarizes one traffic model's deviation across seeds.
type VarianceRow struct {
	Traffic  string
	Seeds    int
	Mean     float64
	StdDev   float64
	Min, Max float64
}

// VarianceConfig parameterizes the study.
type VarianceConfig struct {
	Seed     int64 // first seed; Seeds consecutive values are used
	Seeds    int   // 0 = 5
	Duration sim.Time
	Sessions int // 0 = 4
}

func (c *VarianceConfig) normalize() {
	d := ShortDefaults()
	d.Seeds = 5
	c.Seeds = d.SeedCount(c.Seeds)
	c.Duration = d.Dur(c.Duration)
	if c.Sessions == 0 {
		c.Sessions = 4
	}
}

// VarianceSample is one run's headline deviation — what VarianceSpecs rows
// carry before ReduceVariance folds them into per-traffic summaries.
type VarianceSample struct {
	Traffic   string  `json:"traffic"`
	Seed      int64   `json:"seed"`
	Deviation float64 `json:"deviation"`
}

// VarianceSpecs enumerates one run per (traffic model, seed), each
// producing a single VarianceSample.
func VarianceSpecs(cfg VarianceConfig) []Spec {
	cfg.normalize()
	var specs []Spec
	for _, tr := range AllTraffic {
		for s := 0; s < cfg.Seeds; s++ {
			seed := cfg.Seed + int64(s)
			specs = append(specs, NewSpec("variance",
				fmt.Sprintf("variance/%s/seed=%d", tr.Name, seed),
				seed, cfg.Duration,
				func(m *Meter) (any, error) {
					w := NewWorldB(cfg.Sessions, 0, WorldConfig{Seed: seed, Traffic: tr})
					m.ObserveWorld(w)
					w.Run(cfg.Duration)
					traces, optima := w.AllTraces()
					return []VarianceSample{{
						Traffic:   tr.Name,
						Seed:      seed,
						Deviation: metrics.MeanRelativeDeviation(traces, optima, 0, cfg.Duration),
					}}, nil
				}))
		}
	}
	return specs
}

// ReduceVariance folds per-seed samples into one VarianceRow per traffic
// model, preserving first-seen traffic order.
func ReduceVariance(samples []VarianceSample) []VarianceRow {
	var order []string
	byTraffic := map[string][]float64{}
	for _, s := range samples {
		if _, seen := byTraffic[s.Traffic]; !seen {
			order = append(order, s.Traffic)
		}
		byTraffic[s.Traffic] = append(byTraffic[s.Traffic], s.Deviation)
	}
	var rows []VarianceRow
	for _, name := range order {
		rows = append(rows, summarize(name, byTraffic[name]))
	}
	return rows
}

func summarize(name string, xs []float64) VarianceRow {
	row := VarianceRow{Traffic: name, Seeds: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		row.Mean += x
		row.Min = math.Min(row.Min, x)
		row.Max = math.Max(row.Max, x)
	}
	row.Mean /= float64(len(xs))
	for _, x := range xs {
		row.StdDev += (x - row.Mean) * (x - row.Mean)
	}
	if len(xs) > 1 {
		row.StdDev = math.Sqrt(row.StdDev / float64(len(xs)-1))
	}
	return row
}

// VarianceTable renders the study.
func VarianceTable(rows []VarianceRow) *Table {
	t := &Table{
		Title:  "Across-seed variance of the Figure 8 headline (Topology B, 4 sessions)",
		Header: []string{"traffic", "seeds", "mean dev", "stddev", "min", "max"},
	}
	for _, r := range rows {
		t.AddRow(r.Traffic,
			fmt.Sprintf("%d", r.Seeds),
			fmt.Sprintf("%.3f", r.Mean),
			fmt.Sprintf("%.3f", r.StdDev),
			fmt.Sprintf("%.3f", r.Min),
			fmt.Sprintf("%.3f", r.Max),
		)
	}
	return t
}
