package experiments

import (
	"fmt"

	"toposense/internal/metrics"
	"toposense/internal/sim"
	"toposense/internal/source"
)

// Last-mile study: the architecture is built on the premise that
// "bottlenecks lie deep in the tree" (Section II, the tiered Internet of
// Figure 2) and on subtree independence. This experiment places the SAME
// capacity constraint at different depths of a three-tier tree and
// measures how TopoSense copes:
//
//   - backbone (tier 1): every receiver shares the one bottleneck —
//     congestion is global, coordination happens at the root;
//   - regional (tier 2): half the receivers share it — one subtree
//     coordinates, the other must be untouched;
//   - last mile (tier 3): each constrained receiver has its own bottleneck
//     — the paper's canonical case.
type LastMileRow struct {
	Where     string
	Deviation float64
	// UnaffectedDev is the deviation of receivers NOT behind the
	// bottleneck — subtree independence says it must stay near zero.
	UnaffectedDev float64
	MaxChanges    int
}

// lastMileSpecs runs, per depth, the lastmile family's three-tier tree with
// 4 receivers and a single 3-layer constraint at the chosen tier, everything
// else fat. Receivers behind the constraint have optimum 3; the rest 6. One
// CBR run per depth.
func lastMileSpecs(cfg SweepConfig) []Spec {
	dur := scaled(cfg, studyDuration, QuickDuration)
	depths := []struct{ key, label string }{
		{"backbone", "backbone (tier 1)"},
		{"regional", "regional (tier 2)"},
		{"lastmile", "last mile (tier 3)"},
	}
	var specs []Spec
	for di, depth := range depths {
		specs = append(specs, NewSpec("lastmile",
			"lastmile/"+depth.key, cfg.Seed, dur,
			func(m *Meter) (any, error) {
				w, err := Scenario{WorldConfig: WorldConfig{Seed: cfg.Seed, Traffic: CBR},
					Topo: fmt.Sprintf("lastmile,tier=%d", di+1), Duration: dur.Seconds()}.Assemble(m)
				if err != nil {
					return nil, err
				}
				w.Run(dur)
				return []LastMileRow{lastMileRow(w, dur, depth.label)}, nil
			}))
	}
	return specs
}

// lastMileRow reduces one depth's run. The receivers behind the narrow
// link are the ones whose optimum is below the full layer count.
func lastMileRow(w *World, dur sim.Time, where string) LastMileRow {
	traces, optima := w.AllTraces()
	var conTr, freeTr []*metrics.Trace
	var conOpt, freeOpt []int
	for i := range traces {
		if optima[i] < source.DefaultLayers {
			conTr = append(conTr, traces[i])
			conOpt = append(conOpt, optima[i])
		} else {
			freeTr = append(freeTr, traces[i])
			freeOpt = append(freeOpt, optima[i])
		}
	}
	row := LastMileRow{
		Where:      where,
		Deviation:  metrics.MeanRelativeDeviation(conTr, conOpt, 0, dur),
		MaxChanges: metrics.MaxChanges(traces, 0, dur),
	}
	if len(freeTr) > 0 {
		row.UnaffectedDev = metrics.MeanRelativeDeviation(freeTr, freeOpt, 0, dur)
	}
	return row
}

// LastMileTable renders the depth study.
func LastMileTable(rows []LastMileRow) *Table {
	t := &Table{
		Title:  "Bottleneck depth: the same 3-layer constraint at each tier of a tiered tree",
		Header: []string{"bottleneck at", "constrained dev", "unaffected dev", "max changes"},
	}
	for _, r := range rows {
		un := fmt.Sprintf("%.3f", r.UnaffectedDev)
		if r.Where == "backbone (tier 1)" {
			un = "-" // everyone is constrained
		}
		t.AddRow(r.Where, fmt.Sprintf("%.3f", r.Deviation), un, fmt.Sprintf("%d", r.MaxChanges))
	}
	return t
}
