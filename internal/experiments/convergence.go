package experiments

import (
	"fmt"

	"toposense/internal/metrics"
	"toposense/internal/sim"
	"toposense/internal/topology"
)

// This file reproduces the results the paper carries over from its prior
// work ([5], NOSSDAV 2000): "TopoSense converged to optimal subscription of
// layers in a heterogeneous environment. These results also showed that
// TopoSense imposed intra-session fairness for a single multicast session."
// One session, K receiver sets with capacities for exactly 1..K layers:
// every set must converge to its own optimum, receivers within a set must
// agree (intra-session fairness), and no set may drag another down.

// ConvergenceRow reports one receiver set's outcome.
type ConvergenceRow struct {
	Set     int // 1-based
	Optimal int
	// ModalLevel is the level the set's receivers spent most of the second
	// half of the run at (-1 when set-mates' modes disagree). Probing
	// excursions don't move the mode, so this is the steady-state level.
	ModalLevel int
	// TimeToOptimal is when the set's first receiver reached its optimum.
	TimeToOptimal sim.Time
	// IntraFair is true when every receiver of the set has the same modal
	// level — the prior work's intra-session fairness, robust to
	// desynchronized probe windows.
	IntraFair bool
	Deviation float64
}

// convergenceTraffics are the traffic models the study runs, one spec and
// one report section each, in print order.
var convergenceTraffics = []Traffic{CBR, VBR3}

// convergenceSpecs enumerates the heterogeneous convergence run once per
// traffic model.
func convergenceSpecs(cfg SweepConfig) []Spec {
	dur := scaled(cfg, studyDuration, QuickDuration)
	var specs []Spec
	for _, tr := range convergenceTraffics {
		specs = append(specs, NewSpec("convergence",
			"convergence/"+tr.Name, cfg.Seed, dur,
			func(m *Meter) (any, error) {
				w, err := Scenario{WorldConfig: WorldConfig{Seed: cfg.Seed, Traffic: tr},
					Topo: "ladder", Duration: dur.Seconds()}.Assemble(m)
				if err != nil {
					return nil, err
				}
				w.Run(dur)
				return convergenceRows(w, dur), nil
			}))
	}
	return specs
}

// convergenceRows reduces a layer-ladder run to one row per receiver set:
// the heterogeneous session of LadderSets sets with optimal levels
// 1..LadderSets, LadderReceiversPerSet receivers each.
func convergenceRows(w *World, dur sim.Time) []ConvergenceRow {
	var rows []ConvergenceRow
	half := dur / 2
	for set := 1; set <= topology.LadderSets; set++ {
		lo := (set - 1) * topology.LadderReceiversPerSet
		hi := lo + topology.LadderReceiversPerSet
		traces := w.Traces[0][lo:hi]
		optimal := w.Optimal[0][lo]

		row := ConvergenceRow{Set: set, Optimal: optimal, TimeToOptimal: dur}
		for _, tr := range traces {
			if at := firstTimeAt(tr, optimal, dur); at < row.TimeToOptimal {
				row.TimeToOptimal = at
			}
		}
		// Modal level of each receiver over the steady second half; the
		// set is intra-fair when all modes agree.
		mode := func(tr *metrics.Trace) int {
			counts := map[int]int{}
			for at := half; at <= dur; at += sim.Second {
				counts[tr.LevelAt(at)]++
			}
			best, bestN := 0, -1
			for lvl, n := range counts {
				if n > bestN || (n == bestN && lvl < best) {
					best, bestN = lvl, n
				}
			}
			return best
		}
		row.ModalLevel = mode(traces[0])
		row.IntraFair = true
		for _, tr := range traces[1:] {
			if mode(tr) != row.ModalLevel {
				row.IntraFair = false
				row.ModalLevel = -1
				break
			}
		}
		optima := make([]int, len(traces))
		for i := range optima {
			optima[i] = optimal
		}
		row.Deviation = metrics.MeanRelativeDeviation(traces, optima, 0, dur)
		rows = append(rows, row)
	}
	return rows
}

// ConvergenceTable renders the per-set outcomes.
func ConvergenceTable(rows []ConvergenceRow) *Table {
	t := &Table{
		Title:  "Heterogeneous convergence and intra-session fairness (prior-work [5] reproduction)",
		Header: []string{"set", "optimal", "modal level", "time to optimal (s)", "intra-fair", "rel deviation"},
	}
	for _, r := range rows {
		modal := fmt.Sprintf("%d", r.ModalLevel)
		if r.ModalLevel < 0 {
			modal = "split"
		}
		t.AddRow(
			fmt.Sprintf("%d", r.Set),
			fmt.Sprintf("%d", r.Optimal),
			modal,
			fmt.Sprintf("%.1f", r.TimeToOptimal.Seconds()),
			fmt.Sprintf("%v", r.IntraFair),
			fmt.Sprintf("%.3f", r.Deviation),
		)
	}
	return t
}
