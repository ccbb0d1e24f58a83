package experiments

import (
	"fmt"

	"toposense/internal/metrics"
	"toposense/internal/netsim"
	"toposense/internal/sim"
	"toposense/internal/source"
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

// The heterogeneous session: convergenceSets receiver sets with optimal
// levels 1..convergenceSets, convergencePerSet receivers each.
const (
	convergenceSets   = 4
	convergencePerSet = 2
)

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
				return runConvergence(cfg.Seed, dur, tr, m), nil
			}))
	}
	return specs
}

func runConvergence(seed int64, dur sim.Time, traffic Traffic, m *Meter) []ConvergenceRow {
	e := sim.NewEngine(seed)
	n := netsim.New(e)
	fat := netsim.LinkConfig{Bandwidth: topology.FatBandwidth, Delay: topology.DefaultDelay}
	src := n.AddNode("src")
	hub := n.AddNode("hub")
	n.Connect(src, hub, fat)

	rates := source.Rates(source.DefaultLayers)
	b := &topology.Build{
		Net:        n,
		Sources:    []*netsim.Node{src},
		Controller: src,
		Receivers:  [][]*netsim.Node{nil},
		Optimal:    [][]int{nil},
	}
	for set := 1; set <= convergenceSets; set++ {
		// Capacity: cumulative rate of `set` layers plus 4% headroom, so
		// the optimum is exactly `set`.
		bw := source.CumulativeRate(set) * 1.04
		gw := n.AddNode(fmt.Sprintf("set%d", set))
		n.Connect(hub, gw, netsim.LinkConfig{Bandwidth: bw, Delay: topology.DefaultDelay})
		for i := 0; i < convergencePerSet; i++ {
			rx := n.AddNode(fmt.Sprintf("set%d-rx%d", set, i))
			n.Connect(gw, rx, fat)
			b.Receivers[0] = append(b.Receivers[0], rx)
			b.Optimal[0] = append(b.Optimal[0], source.LevelForBandwidth(rates, bw))
		}
	}

	w := NewWorld(e, b, WorldConfig{Seed: seed, Traffic: traffic})
	m.ObserveWorld(w)
	w.Run(dur)

	var rows []ConvergenceRow
	half := dur / 2
	for set := 1; set <= convergenceSets; set++ {
		lo := (set - 1) * convergencePerSet
		hi := lo + convergencePerSet
		traces := w.Traces[0][lo:hi]
		optimal := b.Optimal[0][lo]

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
