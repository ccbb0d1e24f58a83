package experiments

import (
	"fmt"

	"toposense/internal/sim"
	"toposense/internal/topology"
	"toposense/internal/trace"
)

// fig_churn: the full receiver leave lifecycle under Poisson join/leave
// churn. The study exercises the explicit departure path end to end —
// Depart() tears down every layer group, the Deregister control packet
// removes the controller's entry the moment it lands, and the multicast
// tree prunes behind the last member — sweeping the churn period around the
// decision interval on Topology B (TopoSense vs RLM) plus one large
// tree-ladder point at ~1% churn.

// churnSettleWindow is the tail window settled receivers are judged over:
// a settled receiver must track its optimum regardless of the churn around
// it. Runs shorter than twice the window are judged over their second half.
const churnSettleWindow = 30 * sim.Second

// ChurnStudyRow summarizes one (topology, algorithm, period) run.
type ChurnStudyRow struct {
	Topo    string
	Algo    string // "TopoSense" | "RLM"
	PeriodS float64
	Slots   int

	// Churn driver activity and the controller's lifecycle view.
	Joins, Leaves   int64
	Deregisters     int64 // Deregister packets the controller consumed
	FinalRegistered int   // registration-table size at the end of the run

	// Multicast tree maintenance rates over the run.
	GraftsPerSec, PrunesPerSec float64

	// Tree cost (total edges carrying any group) sampled through the run:
	// drift between the start and end thirds exposes leaked state — a
	// departed receiver whose branch never pruned.
	TreeCostMean, TreeCostStart, TreeCostEnd float64

	// Settled receivers (the ones that never churn) judged over the tail
	// window: mean relative deviation and how many converged (<= 0.25).
	SettledDev       float64
	SettledConverged int
	SettledTotal     int

	// Sharded records the execution model (true = sharded engine). The
	// worker count is deliberately NOT recorded: it is purely physical, and
	// any worker count must reproduce the same rows byte-identically.
	Sharded bool
}

// churnTreePeriod is the tree-ladder point's mean join/leave period.
const churnTreePeriod = 4 * sim.Second

// bChurnSlots picks each session's second receiver, the churn receiver
// b,churnrx=true adds beside the settled one.
func bChurnSlots(b *topology.Build) []Slot {
	refs := make([]Slot, 0, len(b.Receivers))
	for s := range b.Receivers {
		refs = append(refs, Slot{s, 1})
	}
	return refs
}

// treeChurnSlots picks ~1% of a single-session build's receivers (at least
// one), evenly spaced, as churn slots.
func treeChurnSlots(b *topology.Build) []Slot {
	n := len(b.Receivers[0])
	slots := n / 100
	if slots < 1 {
		slots = 1
	}
	refs := make([]Slot, 0, slots)
	for i := 0; i < slots; i++ {
		refs = append(refs, Slot{0, i * n / slots})
	}
	return refs
}

// runChurn is one arm of the study: assemble sc, churn the slots pick
// chooses on its build — through the full departure lifecycle (Depart ->
// Deregister -> prune) under TopoSense, silent Stops under RLM, which has no
// controller to notify — and reduce. topo labels the row.
func runChurn(topo string, sc Scenario, period sim.Time, pick func(*topology.Build) []Slot, m *Meter) ([]ChurnStudyRow, error) {
	w, err := sc.Assemble(m)
	if err != nil {
		return nil, err
	}
	plane, shards, dur := sc.Plane, sc.Shards, sim.FromSeconds(sc.Duration)
	slots := pick(w.Build)
	drv := w.ChurnSlots(period, slots)

	sp := trace.NewSampler(w.Engine, 2*sim.Second)
	sp.Probe("tree_cost", func() float64 { return float64(w.Domain.TreeCost()) })
	sp.Start()
	w.Run(dur)
	sp.Stop()

	row := ChurnStudyRow{Topo: topo, Algo: "TopoSense", PeriodS: period.Seconds(),
		Slots: len(slots), Sharded: shards >= 1,
		Joins: drv.Joins, Leaves: drv.Leaves,
		GraftsPerSec: float64(w.Domain.Grafts) / dur.Seconds(),
		PrunesPerSec: float64(w.Domain.Prunes) / dur.Seconds(),
	}
	if plane == PlaneRLM {
		row.Algo = "RLM"
	} else {
		row.Deregisters = w.Controller.DeregistersRecv
		row.FinalRegistered = len(w.Controller.RegisteredReceivers())
	}
	tc := sp.Series("tree_cost")
	row.TreeCostMean = tc.Mean()
	row.TreeCostStart = tc.Window(0, dur/3).Mean()
	row.TreeCostEnd = tc.Window(dur-dur/3, dur).Mean()

	churning := make(map[Slot]bool, len(slots))
	for _, sl := range slots {
		churning[sl] = true
	}
	from := dur - churnSettleWindow
	if from < dur/2 {
		from = dur / 2
	}
	for s := range w.Traces {
		for i, tr := range w.Traces[s] {
			if churning[Slot{s, i}] {
				continue
			}
			dev := tr.RelativeDeviation(w.Optimal[s][i], from, dur)
			row.SettledDev += dev
			row.SettledTotal++
			if dev <= 0.25 {
				row.SettledConverged++
			}
		}
	}
	if row.SettledTotal > 0 {
		row.SettledDev /= float64(row.SettledTotal)
	}
	return []ChurnStudyRow{row}, nil
}

// churnStudySpecs enumerates the fig_churn sweep: TopoSense-vs-RLM pairs on
// Topology B across the period sweep, plus one TopoSense tree-ladder point
// at ~1% churn. The decision interval is 4 s, so the full sweep churns
// faster than, at, and well above it; cfg.Churn > 0 pins it to one period.
// cfg.Shards selects the engine of the TopoSense arms (RLM is always serial).
func churnStudySpecs(cfg SweepConfig) []Spec {
	const s = sim.Second
	dur := scaled(cfg, studyDuration, QuickDuration)
	sessions := scaled(cfg, 4, 2) // Topology B sessions
	periods := scaled(cfg, []sim.Time{2 * s, 4 * s, 16 * s}, []sim.Time{4 * s})
	if cfg.Churn > 0 {
		periods = []sim.Time{sim.FromSeconds(cfg.Churn)}
	}
	treeTopo := scaled(cfg, "tree,depth=4,branch=10,rxleaf=1", "tree,depth=3,branch=4,rxleaf=2")
	treeDur := scaled(cfg, 30*s, 12*s)

	var specs []Spec
	for _, period := range periods {
		for _, arm := range []struct {
			plane  Plane
			shards int // the RLM arm is always serial
		}{{PlaneFlat, cfg.Shards}, {PlaneRLM, 0}} {
			algo := "TopoSense"
			if arm.plane == PlaneRLM {
				algo = "RLM"
			}
			specs = append(specs, NewSpec("fig_churn",
				fmt.Sprintf("fig_churn/topo=B/period=%gs/%s", period.Seconds(), algo),
				cfg.Seed, dur,
				func(m *Meter) (any, error) {
					return runChurn("B", Scenario{WorldConfig: WorldConfig{Seed: cfg.Seed, Plane: arm.plane},
						Topo: fmt.Sprintf("b,sessions=%d,churnrx=true", sessions), Shards: arm.shards, Duration: dur.Seconds()},
						period, bChurnSlots, m)
				}))
		}
	}
	specs = append(specs, NewSpec("fig_churn",
		fmt.Sprintf("fig_churn/topo=%s/period=%gs/TopoSense", treeTopo, churnTreePeriod.Seconds()),
		cfg.Seed, treeDur,
		func(m *Meter) (any, error) {
			return runChurn(treeTopo, Scenario{WorldConfig: WorldConfig{Seed: cfg.Seed},
				Topo: treeTopo, Shards: cfg.Shards, Duration: treeDur.Seconds()},
				churnTreePeriod, treeChurnSlots, m)
		}))
	return specs
}

// ChurnStudyTable renders the sweep.
func ChurnStudyTable(rows []ChurnStudyRow) *Table {
	t := &Table{
		Title: "Membership churn: Poisson join/leave swept around the decision interval",
		Header: []string{"topology", "algorithm", "period", "slots", "joins/leaves",
			"dereg", "reg at end", "grafts+prunes/s", "tree cost start→end",
			"settled dev", "converged"},
	}
	for _, r := range rows {
		t.AddRow(
			r.Topo,
			r.Algo,
			fmt.Sprintf("%gs", r.PeriodS),
			fmt.Sprintf("%d", r.Slots),
			fmt.Sprintf("%d/%d", r.Joins, r.Leaves),
			fmt.Sprintf("%d", r.Deregisters),
			fmt.Sprintf("%d", r.FinalRegistered),
			fmt.Sprintf("%.2f", r.GraftsPerSec+r.PrunesPerSec),
			fmt.Sprintf("%.1f→%.1f (mean %.1f)", r.TreeCostStart, r.TreeCostEnd, r.TreeCostMean),
			fmt.Sprintf("%.3f", r.SettledDev),
			fmt.Sprintf("%d/%d", r.SettledConverged, r.SettledTotal),
		)
	}
	return t
}
