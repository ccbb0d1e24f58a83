package experiments

import (
	"fmt"
	"strings"

	"toposense/internal/metrics"
	"toposense/internal/sim"
)

// The fig_scale experiment is not a paper figure: it tracks how far toward
// the ROADMAP's 10^5–10^6-receiver north star the simulator currently
// scales, and at what cost. Each point builds one large generated topology,
// runs a short full-stack simulation (sources, multicast, receivers,
// controller), and reports the scaling health numbers: events/s, bytes per
// receiver, forwarding-state memory against the dense nodes×groups
// equivalent, and controller pass wall latency.

// DefaultScaleDuration is simulated seconds per scale point — long enough
// for ~7 controller passes and for receivers to reach their optimal level,
// short enough that the 10^5-receiver point stays minutes of wall clock.
const DefaultScaleDuration = 30 * sim.Second

// QuickScaleDuration is the CI smoke duration.
const QuickScaleDuration = 10 * sim.Second

// scaleLadders maps a generator family to its sweep of spec strings,
// roughly decade steps in receiver count. The mesh family has cycles, so
// it routes through the dense O(N²) tables and its ladder stays small; the
// tree-routable families climb to 10^5 receivers.
var scaleLadders = map[string][]string{
	"tree": {
		"tree,depth=2,branch=5,rxleaf=4",   // 100 receivers
		"tree,depth=3,branch=8,rxleaf=2",   // 1 024
		"tree,depth=4,branch=10,rxleaf=1",  // 10 000
		"tree,depth=4,branch=10,rxleaf=10", // 100 000
	},
	"star": {
		"star,arms=10,rxarm=10",    // 100
		"star,arms=100,rxarm=10",   // 1 000
		"star,arms=100,rxarm=100",  // 10 000
		"star,arms=1000,rxarm=100", // 100 000
	},
	"linear": {
		"linear,chains=4,length=5,rxhop=5",      // 100
		"linear,chains=10,length=10,rxhop=10",   // 1 000
		"linear,chains=32,length=31,rxhop=10",   // ~10 000
		"linear,chains=100,length=100,rxhop=10", // 100 000
	},
	"mesh": {
		"mesh,routers=10,rxrouter=10",  // 100
		"mesh,routers=50,rxrouter=20",  // 1 000
		"mesh,routers=100,rxrouter=30", // 3 000
	},
}

// ScaleRow is one point of the scaling curve.
type ScaleRow struct {
	Topo      string `json:"topo"`      // the generator spec string
	Nodes     int    `json:"nodes"`     // network nodes
	Links     int    `json:"links"`     // directed links
	Receivers int    `json:"receivers"` // session receivers
	Groups    int    `json:"groups"`    // registered multicast groups

	// Forwarding-state memory after the run, against what a fully allocated
	// [node][group] pointer table would hold.
	TableEntries    int `json:"table_entries"`
	TableBytes      int `json:"table_bytes"`
	DenseEquivBytes int `json:"dense_equiv_bytes"`

	// Controller pass wall-clock latency (host time; reporting only).
	Passes     int64   `json:"passes"`
	PassMeanMs float64 `json:"pass_mean_ms"`
	PassMaxMs  float64 `json:"pass_max_ms"`

	// Shards is the engine worker count the run used (0 = the
	// single-threaded engine). Results are byte-identical across worker
	// counts >= 1; only wall-clock differs.
	Shards int `json:"shards,omitempty"`

	// Control-plane fan-in at the controller. CtlMsgs/CtlBytes count every
	// control message (and its modeled wire bytes) delivered to the
	// controller agent over the run; FanInPerPass is messages per decision
	// pass and CtlBytesPerRx bytes per receiver. Aggregate marks the runs
	// with the in-network aggregation layer installed — the tentpole claim
	// is these columns collapsing from O(receivers) to O(branching).
	Aggregate     bool    `json:"aggregate,omitempty"`
	CtlMsgs       int64   `json:"ctl_msgs"`
	CtlBytes      int64   `json:"ctl_bytes"`
	FanInPerPass  float64 `json:"fanin"`
	CtlBytesPerRx float64 `json:"ctl_bytes_per_rx"`

	// Federate marks the runs under the hierarchical control plane: scoped
	// per-domain leaf controllers under a federation parent. The fan-in
	// columns then sum over every leaf, and Passes counts all leaf passes.
	Federate bool `json:"federate,omitempty"`

	// Delivered volume and quality.
	RxBytes          int64   `json:"rx_bytes"` // bytes serialized onto receiver last-hop links
	BytesPerReceiver float64 `json:"bytes_per_receiver"`
	MeanDev          float64 `json:"mean_dev"` // mean relative deviation from optimal
}

// scalePoints resolves cfg.Topo into generator spec strings: "" or a family
// name ("tree", "star", "linear", "mesh") is that family's ladder — its
// first two points in the quick form — and any other generator spec string
// is a single point.
func scalePoints(cfg SweepConfig) []string {
	topo := cfg.Topo
	if topo == "" {
		topo = "tree"
	}
	points, ok := scaleLadders[topo]
	if !ok {
		return []string{topo} // a single explicit generator spec
	}
	if cfg.Quick && len(points) > 2 {
		points = points[:2]
	}
	return points
}

// scaleSpecs enumerates the scaling curve: one CBR run per topology point,
// plus twins of each point that let the table compare:
//
//   - cfg.Shards > 1: the point on the sharded engine with that many
//     workers, named "<point>/shards=N" — events/s at both shard counts and
//     the wall-clock speedup;
//   - cfg.Aggregate: the point with in-network aggregation, named
//     "<point>/agg" — control fan-in, control bytes and pass latency both
//     ways, plus the agg-gain column against the flat twin;
//   - cfg.Federate: the point under the hierarchical control plane, named
//     "<point>/fed" — per-domain leaf controllers under a federation parent.
//     Needs a domain-labelled family (tree, star, linear, tiered — not mesh).
func scaleSpecs(cfg SweepConfig) []Spec {
	dur := scaled(cfg, DefaultScaleDuration, QuickScaleDuration)
	var specs []Spec
	for _, point := range scalePoints(cfg) {
		flat := Scenario{WorldConfig: WorldConfig{Seed: cfg.Seed, Traffic: CBR}, Topo: point, Duration: dur.Seconds()}
		sharded, agg, fed := flat, flat, flat
		sharded.Shards, agg.Aggregate, fed.Plane = cfg.Shards, true, PlaneFederated
		specs = append(specs, scaleSpec(flat))
		if cfg.Shards > 1 {
			specs = append(specs, scaleSpec(sharded))
		}
		if cfg.Aggregate {
			specs = append(specs, scaleSpec(agg))
		}
		if cfg.Federate {
			specs = append(specs, scaleSpec(fed))
		}
	}
	return specs
}

// scaleSpec builds the Spec that runs one ladder point as described by sc:
// on the single-threaded oracle or the sharded engine, optionally with the
// in-network aggregation layer or the federated control plane installed.
func scaleSpec(sc Scenario) Spec {
	name := "fig_scale/" + sc.Topo
	if sc.Shards > 1 {
		name = fmt.Sprintf("%s/shards=%d", name, sc.Shards)
	}
	if sc.Aggregate {
		name += "/agg"
	}
	if sc.Plane == PlaneFederated {
		name += "/fed"
	}
	dur := sim.FromSeconds(sc.Duration)
	return NewSpec("fig_scale", name, sc.Seed, dur,
		func(m *Meter) (any, error) {
			w, err := sc.Assemble(m)
			if err != nil {
				return nil, err
			}
			b := w.Build
			row := ScaleRow{
				Topo:      sc.Topo,
				Nodes:     b.Net.NumNodes(),
				Links:     b.Net.NumLinks(),
				Receivers: len(b.AllReceivers()),
				Shards:    sc.Shards,
				Aggregate: sc.Aggregate,
				Federate:  sc.Plane == PlaneFederated,
			}
			w.Run(dur)
			row.Groups = w.Domain.NumGroups()
			st := w.Domain.StateStats()
			row.TableEntries, row.TableBytes = st.Entries, st.Bytes
			// Fan-in and pass latency sum over every controller — under the
			// hierarchy each leaf's own fan-in is a domain-sized fraction of
			// the flat controller's.
			var passWall, passWallMax int64
			for _, c := range w.Controllers {
				row.Passes += c.StepsRun
				row.CtlMsgs += c.CtlMsgsRecv
				row.CtlBytes += c.CtlBytesRecv
				passWall += c.PassWallNanos
				if c.PassWallMaxNanos > passWallMax {
					passWallMax = c.PassWallMaxNanos
				}
			}
			traces, optima := w.AllTraces()
			row.DenseEquivBytes = row.Nodes * row.Groups * 8
			if row.Passes > 0 {
				row.PassMeanMs = float64(passWall) / float64(row.Passes) / 1e6
				row.FanInPerPass = float64(row.CtlMsgs) / float64(row.Passes)
			}
			row.PassMaxMs = float64(passWallMax) / 1e6
			for _, rx := range b.AllReceivers() {
				for _, l := range rx.Links() {
					if r := l.Reverse(); r != nil {
						row.RxBytes += r.Stats().TxBytes
					}
				}
			}
			if row.Receivers > 0 {
				row.BytesPerReceiver = float64(row.RxBytes) / float64(row.Receivers)
				row.CtlBytesPerRx = float64(row.CtlBytes) / float64(row.Receivers)
			}
			row.MeanDev = metrics.MeanRelativeDeviation(traces, optima, 0, dur)
			return []ScaleRow{row}, nil
		})
}

// ScaleTable renders the curve, joining each row with its run's event
// throughput from the Result (events/s and wall seconds live there, not in
// the row, so the renderer takes both). When the sweep ran points on both
// engines (SweepConfig.Shards > 1), the sharded run's speedup column is
// its single-threaded twin's wall time divided by its own.
func ScaleTable(results []Result) (string, error) {
	// Wall time and fan-in of each point's flat single-threaded run, for
	// the speedup column of its sharded twin and the agg-speedup column of
	// its aggregated twin.
	baseWall := map[string]float64{}
	baseFanIn := map[string]float64{}
	for _, r := range results {
		rows, ok := r.Rows.([]ScaleRow)
		if !ok || len(rows) != 1 || rows[0].Shards > 1 || rows[0].Aggregate || rows[0].Federate {
			continue
		}
		baseWall[rows[0].Topo] = r.WallSeconds
		baseFanIn[rows[0].Topo] = rows[0].FanInPerPass
	}
	t := &Table{
		Title: "fig_scale: receivers vs cost (events/s, state bytes, pass latency, control fan-in)",
		Header: []string{"topology", "rx", "nodes", "engine", "events/s", "wall s", "speedup",
			"state bytes", "dense equiv", "pass mean ms", "pass max ms",
			"fanin/pass", "ctl B/rx", "agg gain", "B/rx", "dev"},
	}
	for _, r := range results {
		if r.Failed() {
			return "", fmt.Errorf("run %s failed: %s", r.Name, r.Err)
		}
		rows, ok := r.Rows.([]ScaleRow)
		if !ok || len(rows) != 1 {
			return "", fmt.Errorf("run %s: rows are %T, want one ScaleRow", r.Name, r.Rows)
		}
		row := rows[0]
		engine, speedup := "st", "-"
		if row.Shards >= 1 {
			engine = fmt.Sprintf("%d", row.Shards)
			if base, ok := baseWall[row.Topo]; ok && r.WallSeconds > 0 {
				speedup = fmt.Sprintf("%.2fx", base/r.WallSeconds)
			}
		}
		// agg gain: the flat twin's controller fan-in over the aggregated
		// run's — the message-reduction factor the tentpole claims.
		aggGain := "-"
		if row.Aggregate {
			engine += "+agg"
			if base, ok := baseFanIn[row.Topo]; ok && row.FanInPerPass > 0 {
				aggGain = fmt.Sprintf("%.0fx", base/row.FanInPerPass)
			}
		}
		if row.Federate {
			engine += "+fed"
		}
		t.AddRow(
			strings.TrimPrefix(row.Topo, "fig_scale/"),
			fmt.Sprintf("%d", row.Receivers),
			fmt.Sprintf("%d", row.Nodes),
			engine,
			fmt.Sprintf("%.3g", r.EventsPerSecond),
			fmt.Sprintf("%.1f", r.WallSeconds),
			speedup,
			fmt.Sprintf("%d", row.TableBytes),
			fmt.Sprintf("%d", row.DenseEquivBytes),
			fmt.Sprintf("%.2f", row.PassMeanMs),
			fmt.Sprintf("%.2f", row.PassMaxMs),
			fmt.Sprintf("%.0f", row.FanInPerPass),
			fmt.Sprintf("%.1f", row.CtlBytesPerRx),
			aggGain,
			fmt.Sprintf("%.0f", row.BytesPerReceiver),
			fmt.Sprintf("%.3f", row.MeanDev),
		)
	}
	return t.String() + "\n", nil
}
