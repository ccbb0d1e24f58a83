// Package toposense's root benchmarks regenerate (at reduced scale) every
// table and figure of the paper's evaluation, one benchmark per exhibit.
// Each iteration runs a complete simulation; custom metrics expose the
// quantities the paper plots so `go test -bench . -benchmem` doubles as a
// reproduction smoke test:
//
//	maxchg     — maximum subscription changes by any receiver (Figs 6, 7)
//	meanbetw_s — mean seconds between the busiest receiver's changes
//	dev1, dev2 — mean relative deviation from optimal per half (Fig 8)
//	oversub%%  — samples spent over-subscribed at layers 5-6 (Fig 9)
//	dev0, dev8 — deviation with fresh vs 8-second-old topology (Fig 10)
//
// Full paper-scale sweeps: go run ./cmd/topobench
package toposense

import (
	"fmt"
	"testing"

	"toposense/internal/core"
	"toposense/internal/experiments"
	"toposense/internal/metrics"
	"toposense/internal/sim"
)

// quickSpecs returns a registry experiment's quick sweep at seed — 240 s
// runs — narrowed to the named specs, in the order given.
func quickSpecs(b *testing.B, figure string, seed int64, names ...string) []experiments.Spec {
	b.Helper()
	ex, ok := experiments.Lookup(figure)
	if !ok {
		b.Fatalf("%s not in the registry", figure)
	}
	byName := map[string]experiments.Spec{}
	for _, s := range ex.Specs(experiments.SweepConfig{Seed: seed, Quick: true}) {
		byName[s.Name] = s
	}
	var specs []experiments.Spec
	for _, n := range names {
		s, ok := byName[n]
		if !ok {
			b.Fatalf("%s has no spec %q", figure, n)
		}
		specs = append(specs, s)
	}
	return specs
}

// gather executes specs serially and returns their typed rows, failing the
// benchmark on the first failed run.
func gather[T any](b *testing.B, specs []experiments.Spec) []T {
	b.Helper()
	rows, err := experiments.GatherRows[T](experiments.ExecuteAll(specs))
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

// BenchmarkFig6Stability: Topology A, stability of the busiest receiver.
func BenchmarkFig6Stability(b *testing.B) {
	var lastMax, lastBetween float64
	for i := 0; i < b.N; i++ {
		rows := gather[experiments.StabilityRow](b, quickSpecs(b, "6", int64(i+1), "fig6/rx=4/CBR"))
		lastMax = float64(rows[0].MaxChanges)
		lastBetween = rows[0].MeanBetween.Seconds()
	}
	b.ReportMetric(lastMax, "maxchg")
	b.ReportMetric(lastBetween, "meanbetw_s")
}

// BenchmarkFig7Stability: Topology B, stability of the busiest session.
func BenchmarkFig7Stability(b *testing.B) {
	var lastMax, lastBetween float64
	for i := 0; i < b.N; i++ {
		rows := gather[experiments.StabilityRow](b, quickSpecs(b, "7", int64(i+1), "fig7/sessions=4/VBR(P=3)"))
		lastMax = float64(rows[0].MaxChanges)
		lastBetween = rows[0].MeanBetween.Seconds()
	}
	b.ReportMetric(lastMax, "maxchg")
	b.ReportMetric(lastBetween, "meanbetw_s")
}

// BenchmarkFig8Fairness: Topology B inter-session fairness, both halves.
func BenchmarkFig8Fairness(b *testing.B) {
	var d1, d2 float64
	for i := 0; i < b.N; i++ {
		rows := gather[experiments.FairnessRow](b, quickSpecs(b, "8", int64(i+1), "fig8/sessions=4/CBR"))
		d1, d2 = rows[0].DevFirst, rows[0].DevSecond
	}
	b.ReportMetric(d1, "dev1")
	b.ReportMetric(d2, "dev2")
}

// BenchmarkFig9Trace: 4 competing VBR sessions, over-subscription episodes.
func BenchmarkFig9Trace(b *testing.B) {
	var over float64
	for i := 0; i < b.N; i++ {
		run := quickSpecs(b, "9", int64(i+1), "fig9/sessions=4/VBR(P=3)")[0].Execute(0)
		if run.Failed() {
			b.Fatal(run.Err)
		}
		res := run.Rows.(*experiments.Fig9Result)
		count, total := 0, 0
		for _, lv := range res.Levels {
			for j := 0; j < lv.Len(); j++ {
				_, v := lv.At(j)
				total++
				if v >= 5 {
					count++
				}
			}
		}
		if total > 0 {
			over = 100 * float64(count) / float64(total)
		}
	}
	b.ReportMetric(over, "oversub%")
}

// BenchmarkFig10Staleness: deviation with fresh vs 8-second-old topology.
func BenchmarkFig10Staleness(b *testing.B) {
	var fresh, stale float64
	for i := 0; i < b.N; i++ {
		rows := gather[experiments.StaleRow](b, quickSpecs(b, "10", int64(i+1),
			"fig10/rx=4/stale=0s", "fig10/rx=4/stale=8s"))
		fresh, stale = rows[0].Deviation, rows[1].Deviation
	}
	b.ReportMetric(fresh, "dev0")
	b.ReportMetric(stale, "dev8")
}

// BenchmarkBaselineRLM: TopoSense vs the receiver-driven baseline on
// Topology B under VBR(P=3).
func BenchmarkBaselineRLM(b *testing.B) {
	var ts, rlm float64
	for i := 0; i < b.N; i++ {
		rows := gather[experiments.BaselineRow](b, quickSpecs(b, "baseline", int64(i+1),
			"baseline/topo=B/VBR(P=3)/TopoSense", "baseline/topo=B/VBR(P=3)/RLM"))
		ts, rlm = rows[0].Deviation, rows[1].Deviation
	}
	b.ReportMetric(ts, "dev_toposense")
	b.ReportMetric(rlm, "dev_rlm")
}

// BenchmarkTableI measures the Table-I decision-table lookups themselves —
// the per-node cost at the heart of every controller interval.
func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	sink := core.ActMaintain
	for i := 0; i < b.N; i++ {
		hist := uint8(i) & 7
		rel := core.BWRel(i % 3)
		sink = core.LeafAction(hist, rel)
		sink = core.InternalAction(hist, rel)
	}
	_ = sink
}

// BenchmarkAlgorithmStep measures one full five-stage TopoSense interval on
// a 16-session Topology-B-shaped input, isolated from the packet simulator.
func BenchmarkAlgorithmStep(b *testing.B) {
	cfg := core.NewConfig([]float64{32e3, 64e3, 128e3, 256e3, 512e3, 1024e3})
	alg := core.New(cfg, nil)
	const sessions = 16
	var topos []*core.Topology
	var reports []core.ReceiverState
	for s := 0; s < sessions; s++ {
		src := core.NodeID(100 + s)
		rx := core.NodeID(200 + s)
		topos = append(topos, core.NewTopology(s, src, map[core.NodeID]core.NodeID{0: src, 1: 0, rx: 1}, map[core.NodeID]bool{rx: true}))
		reports = append(reports, core.ReceiverState{
			Node: rx, Session: s, Level: 4, LossRate: 0.08, Bytes: 240_000,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i+1) * cfg.Interval
		alg.Step(core.Input{Now: now, Topologies: topos, Reports: reports})
	}
}

// BenchmarkSimulation measures raw simulator throughput: packet events per
// second on a loaded Topology B, the substrate cost under every experiment.
func BenchmarkSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := experiments.NewWorldB(4, 0, experiments.WorldConfig{Seed: int64(i + 1), Traffic: experiments.CBR})
		w.Run(30 * sim.Second)
		if i == 0 {
			b.ReportMetric(float64(w.Engine.Fired()), "events/run")
		}
	}
}

// BenchmarkMetricReduction measures the deviation-metric reduction over a
// long subscription trace.
func BenchmarkMetricReduction(b *testing.B) {
	tr := metrics.NewTrace(0, 1)
	for t := sim.Time(1); t < 10_000; t++ {
		tr.Set(t*sim.Second, int(t)%6+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RelativeDeviation(4, 0, 10_000*sim.Second)
	}
}

// BenchmarkAblation quantifies each design decision's contribution on the
// standard Topology-B VBR scenario (see DESIGN.md for the inventory).
func BenchmarkAblation(b *testing.B) {
	varDev := map[string]float64{}
	for i := 0; i < b.N; i++ {
		rows := gather[experiments.AblationRow](b, quickSpecs(b, "ablation", int64(i+1),
			"ablation/full", "ablation/no-backoff", "ablation/pin-any-link"))
		for _, r := range rows {
			varDev[r.Variant] = r.Deviation
		}
	}
	b.ReportMetric(varDev["full"], "dev_full")
	b.ReportMetric(varDev["pin-any-link"], "dev_pin_any")
	b.ReportMetric(varDev["no-backoff"], "dev_no_backoff")
}

// BenchmarkAlgorithmStepScale measures the controller's per-interval cost
// as session count grows — the computational side of the scalability story
// (the architectural side is domain partitioning, cmd/topobench -fig
// domains).
func BenchmarkAlgorithmStepScale(b *testing.B) {
	for _, sessions := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("sessions-%d", sessions), func(b *testing.B) {
			cfg := core.NewConfig([]float64{32e3, 64e3, 128e3, 256e3, 512e3, 1024e3})
			alg := core.New(cfg, nil)
			var topos []*core.Topology
			var reports []core.ReceiverState
			for s := 0; s < sessions; s++ {
				src := core.NodeID(10_000 + s)
				rx := core.NodeID(20_000 + s)
				topos = append(topos, core.NewTopology(s, src, map[core.NodeID]core.NodeID{0: src, 1: 0, rx: 1}, map[core.NodeID]bool{rx: true}))
				reports = append(reports, core.ReceiverState{
					Node: rx, Session: s, Level: 4, LossRate: 0.08, Bytes: 240_000,
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				alg.Step(core.Input{Now: sim.Time(i+1) * cfg.Interval, Topologies: topos, Reports: reports})
			}
		})
	}
}

// BenchmarkMulticastForwarding measures raw packet replication through the
// multicast layer on a 32-receiver tree.
func BenchmarkMulticastForwarding(b *testing.B) {
	w := experiments.NewWorldA(16, 0, experiments.WorldConfig{Seed: 1, Traffic: experiments.CBR})
	w.Run(30 * sim.Second) // receivers joined and climbing
	before := w.Engine.Fired()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(w.Engine.Now() + sim.Second)
	}
	b.StopTimer()
	b.ReportMetric(float64(w.Engine.Fired()-before)/float64(b.N), "events/simsec")
}
