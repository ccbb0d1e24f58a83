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
					w, err := Scenario{WorldConfig: WorldConfig{Seed: seed, Traffic: tr},
						Topo: fmt.Sprintf("b,sessions=%d", varianceSessions), Duration: dur.Seconds()}.Assemble(m)
					if err != nil {
						return nil, err
					}
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
	var rows []VarianceRow
	for _, g := range groupBy(samples, func(s VarianceSample) string { return s.Traffic }) {
		rows = append(rows, summarize(g))
	}
	return rows
}

// summarize folds one traffic model's samples into its row.
func summarize(samples []VarianceSample) VarianceRow {
	row := VarianceRow{Traffic: samples[0].Traffic, Seeds: len(samples), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, s := range samples {
		row.Mean += s.Deviation
		row.Min = math.Min(row.Min, s.Deviation)
		row.Max = math.Max(row.Max, s.Deviation)
	}
	row.Mean /= float64(len(samples))
	for _, s := range samples {
		row.StdDev += (s.Deviation - row.Mean) * (s.Deviation - row.Mean)
	}
	if len(samples) > 1 {
		row.StdDev = math.Sqrt(row.StdDev / float64(len(samples)-1))
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
