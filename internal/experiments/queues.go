package experiments

import (
	"fmt"

	"toposense/internal/metrics"
	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// Queue-policy comparison: the paper cites router-based priority
// packet-dropping (Bajaj, Breslau, Shenker) as "effective, but may not be
// easy to deploy" and positions TopoSense as the deployable alternative.
// This experiment quantifies that trade: the same Topology B under
// drop-tail routers (the paper's setting), priority-dropping routers with
// no controller (the router-based approach alone), and both combined.

// QueueRow reports one configuration's outcome.
type QueueRow struct {
	Config    string
	Deviation float64
	// BaseLoss is the mean loss rate receivers saw on their base layer —
	// what priority dropping protects.
	MeanLoss   float64
	MaxChanges int
}

// queueSessions is the Topology B session count.
const queueSessions = 4

// queuePolicySpecs compares drop-tail vs priority dropping, with and
// without the TopoSense controller — one run per configuration, under
// VBR(P=3) traffic: burstiness is where the policies differ.
func queuePolicySpecs(cfg SweepConfig) []Spec {
	dur := scaled(cfg, studyDuration, QuickDuration)
	type variant struct {
		key, name string
		policy    netsim.DropPolicy
		plane     Plane
	}
	variants := []variant{
		{"droptail+toposense", "drop-tail + TopoSense (paper)", netsim.DropTail, PlaneFlat},
		{"priority+toposense", "priority + TopoSense", netsim.DropPriority, PlaneFlat},
		{"droptail+rlm", "drop-tail + RLM", netsim.DropTail, PlaneRLM},
		{"priority+rlm", "priority + RLM", netsim.DropPriority, PlaneRLM},
	}
	var specs []Spec
	for _, v := range variants {
		specs = append(specs, NewSpec("queues",
			"queues/"+v.key, cfg.Seed, dur,
			func(m *Meter) (any, error) {
				w := NewWorldB(queueSessions, 0, WorldConfig{Seed: cfg.Seed, Traffic: VBR3, Plane: v.plane})
				m.ObserveWorld(w)
				for _, l := range w.Net.Links() {
					l.Policy = v.policy
				}
				// Base-layer loss is read off the TopoSense receivers' own
				// reports; RLM receivers keep no comparable figure.
				lossSum, lossN := 0.0, 0
				if v.plane != PlaneRLM {
					sim.Every(sim.GlobalOf(w.Engine), sim.Second, func() {
						for _, rxs := range w.Receivers {
							lossSum += rxs[0].LastLoss
							lossN++
						}
					})
				}
				w.Run(dur)
				traces, optima := w.AllTraces()
				row := QueueRow{
					Config:     v.name,
					Deviation:  metrics.MeanRelativeDeviation(traces, optima, 0, dur),
					MaxChanges: metrics.MaxChanges(traces, 0, dur),
				}
				if lossN > 0 {
					row.MeanLoss = lossSum / float64(lossN)
				}
				return []QueueRow{row}, nil
			}))
	}
	return specs
}

// QueueTable renders the comparison.
func QueueTable(rows []QueueRow) *Table {
	t := &Table{
		Title:  "Queue policy: drop-tail vs router-based priority dropping (related work [16])",
		Header: []string{"configuration", "rel deviation", "mean loss", "max changes"},
	}
	for _, r := range rows {
		loss := fmt.Sprintf("%.4f", r.MeanLoss)
		if r.MeanLoss == 0 {
			loss = "-"
		}
		t.AddRow(r.Config, fmt.Sprintf("%.3f", r.Deviation), loss, fmt.Sprintf("%d", r.MaxChanges))
	}
	return t
}
