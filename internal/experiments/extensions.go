package experiments

import (
	"fmt"

	"toposense/internal/core"
	"toposense/internal/metrics"
	"toposense/internal/sim"
	"toposense/internal/source"
)

// This file implements the "challenges" of the paper's Section V as
// measurable experiments — the future-work knobs the authors discuss in
// prose:
//
//   - layer granularity ("A possible remedy ... is to have finer
//     granularity in bandwidth requirements of layers ... However, a very
//     large number of layers can delay convergence");
//   - group-leave latency ("Leaving a troublesome group may not
//     immediately alleviate congestion");
//   - decision-interval size ("Choosing the optimal interval size is thus
//     crucial").

// ExtensionRow is one point of an extension sweep.
type ExtensionRow struct {
	Param      string // human-readable parameter value
	Deviation  float64
	MaxChanges int
	// TimeToOptimal is when the receiver first reached the optimal level,
	// measuring the convergence cost Section V predicts for many layers.
	TimeToOptimal sim.Time
}

// reduceExtension folds per-seed rows into one averaged row per parameter.
// Rows for the same parameter are consecutive (spec enumeration order), so
// a linear grouping pass suffices and keeps the sweep order.
func reduceExtension(perSeed []ExtensionRow) []ExtensionRow {
	var rows []ExtensionRow
	for i := 0; i < len(perSeed); {
		j := i
		for j < len(perSeed) && perSeed[j].Param == perSeed[i].Param {
			j++
		}
		rows = append(rows, average(perSeed[i:j]))
		i = j
	}
	return rows
}

// average folds per-seed rows for the same parameter into one row.
func average(rows []ExtensionRow) ExtensionRow {
	out := rows[0]
	if len(rows) == 1 {
		return out
	}
	var dev, tto float64
	maxChg := 0
	for _, r := range rows {
		dev += r.Deviation
		tto += r.TimeToOptimal.Seconds()
		if r.MaxChanges > maxChg {
			maxChg = r.MaxChanges
		}
	}
	out.Deviation = dev / float64(len(rows))
	out.TimeToOptimal = sim.FromSeconds(tto / float64(len(rows)))
	out.MaxChanges = maxChg
	return out
}

// granularity describes one layering scheme of roughly equal total span.
type granularity struct {
	name   string
	rates  []float64
	bottle float64 // bottleneck sized so the optimum is mid-range
}

// extensionSpecs enumerates the three Section V sweeps, one run per (point,
// seed) over consecutive seeds from cfg.Seed, in report order:
//
//   - granularity, on a single-receiver-per-set bottleneck chain: the
//     paper's 6 doubling layers versus finer geometric layerings covering a
//     similar range. Finer layers bound the over-subscription overshoot
//     (each add risks less bandwidth) at the price of slower convergence
//     (adds happen one layer at a time).
//   - group-leave latency on Topology B: the longer pruning takes, the
//     longer a dropped layer keeps congesting the bottleneck after the
//     decision, and the worse the post-drop transients. A latency of ~0
//     models the "expedited group-leaves" the paper proposes. This sweep
//     runs VBR(P=3): under CBR the system converges and rarely drops
//     layers, so there is nothing for the prune latency to act on.
//   - the controller's decision interval on Topology B: short intervals
//     react fast but see bursty noise and drain transients; long intervals
//     smooth the noise but react slowly — the trade-off of the paper's
//     final Section V bullet.
//
// The other two sweeps run CBR traffic, which isolates the swept parameter.
func extensionSpecs(cfg SweepConfig) []Spec {
	dur := scaled(cfg, studyDuration, QuickDuration)
	seeds := scaled(cfg, 3, 1) // runs averaged per point
	var specs []Spec
	// point appends one run per seed of a sweep point: sc with the seed and
	// the duration filled in. optimal, when positive, replaces every
	// receiver's optimum in the reduction.
	point := func(name, param string, optimal int, sc Scenario) {
		for s := 0; s < seeds; s++ {
			seed := cfg.Seed + int64(s)
			sc := sc
			sc.Seed, sc.Duration = seed, dur.Seconds()
			specs = append(specs, NewSpec("extensions",
				fmt.Sprintf("extensions/%s/seed=%d", name, seed),
				seed, dur,
				func(m *Meter) (any, error) {
					w, err := sc.Assemble(m)
					if err != nil {
						return nil, err
					}
					w.Run(dur)
					traces, optima := w.AllTraces()
					if optimal > 0 {
						for i := range optima {
							optima[i] = optimal
						}
					}
					return []ExtensionRow{{
						Param:         param,
						Deviation:     metrics.MeanRelativeDeviation(traces, optima, 0, dur),
						MaxChanges:    metrics.MaxChanges(traces, 0, dur),
						TimeToOptimal: firstTimeAt(traces[0], optima[0], dur),
					}}, nil
				}))
		}
	}

	for _, g := range []granularity{
		{name: "6 layers x2.0 (paper)", rates: source.RatesGeometric(6, 32e3, 2), bottle: 500e3},
		{name: "9 layers x1.5", rates: source.RatesGeometric(9, 32e3, 1.5), bottle: 500e3},
		{name: "12 layers x1.35", rates: source.RatesGeometric(12, 24e3, 1.35), bottle: 500e3},
	} {
		point(fmt.Sprintf("granularity/%d-layers", len(g.rates)), g.name,
			source.LevelForBandwidth(g.rates, g.bottle),
			Scenario{WorldConfig: WorldConfig{Traffic: CBR, Rates: g.rates},
				Topo: fmt.Sprintf("a,rxset=2,bw1=%g,bw2=%[1]g,layers=%d", g.bottle, len(g.rates))})
	}
	for _, ll := range []sim.Time{1, 500 * sim.Millisecond, sim.Second, 2 * sim.Second, 4 * sim.Second} {
		param := ll.String()
		if ll == 1 {
			param = "~0 (expedited)"
		}
		point("leave/"+param, param, 0,
			Scenario{WorldConfig: WorldConfig{Traffic: VBR3, LeaveLatency: ll}, Topo: "b,sessions=4"})
	}
	for _, iv := range []sim.Time{2 * sim.Second, 4 * sim.Second, 8 * sim.Second, 16 * sim.Second} {
		point("interval/"+iv.String(), iv.String(), 0,
			Scenario{WorldConfig: WorldConfig{Traffic: CBR, Alg: core.Config{Interval: iv}}, Topo: "b,sessions=4"})
	}
	return specs
}

// firstTimeAt returns the first instant the trace reaches level target, or
// the full duration if it never does.
func firstTimeAt(tr *metrics.Trace, target int, duration sim.Time) sim.Time {
	for _, p := range tr.Points() {
		if p.Level >= target {
			return p.At
		}
	}
	return duration
}

// ExtensionTable renders one extension sweep.
func ExtensionTable(title, param string, rows []ExtensionRow) *Table {
	t := &Table{
		Title:  title,
		Header: []string{param, "rel deviation", "max changes", "time to optimal (s)"},
	}
	for _, r := range rows {
		t.AddRow(r.Param,
			fmt.Sprintf("%.3f", r.Deviation),
			fmt.Sprintf("%d", r.MaxChanges),
			fmt.Sprintf("%.1f", r.TimeToOptimal.Seconds()),
		)
	}
	return t
}
