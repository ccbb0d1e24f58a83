package experiments

import (
	"fmt"
	"math"

	"toposense/internal/metrics"
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

// varianceSessions is the Figure 8 point the study repeats.
const varianceSessions = 4

// VarianceSample is one run's headline deviation — what the variance
// sweep's rows carry before ReduceVariance folds them into per-traffic
// summaries.
type VarianceSample struct {
	Traffic   string  `json:"traffic"`
	Seed      int64   `json:"seed"`
	Deviation float64 `json:"deviation"`
}

// varianceSpecs enumerates one run per (traffic model, seed) — consecutive
// seeds from cfg.Seed — each producing a single VarianceSample.
func varianceSpecs(cfg SweepConfig) []Spec {
	dur := scaled(cfg, studyDuration, QuickDuration)
	seeds := scaled(cfg, 5, 3)
	var specs []Spec
	for _, tr := range AllTraffic {
		for s := 0; s < seeds; s++ {
			seed := cfg.Seed + int64(s)
			specs = append(specs, NewSpec("variance",
				fmt.Sprintf("variance/%s/seed=%d", tr.Name, seed),
				seed, dur,
				func(m *Meter) (any, error) {
					w := NewWorldB(varianceSessions, 0, WorldConfig{Seed: seed, Traffic: tr})
					m.ObserveWorld(w)
					w.Run(dur)
					traces, optima := w.AllTraces()
					return []VarianceSample{{
						Traffic:   tr.Name,
						Seed:      seed,
						Deviation: metrics.MeanRelativeDeviation(traces, optima, 0, dur),
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
