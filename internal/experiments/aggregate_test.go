package experiments

import (
	"fmt"
	"testing"

	"toposense/internal/sim"
	"toposense/internal/topology"
)

// finalLevels flattens every receiver's final subscription level,
// session-major — the decision surface the equivalence contract covers.
func finalLevels(w *World) []int {
	var levels []int
	for s := range w.Receivers {
		for _, rx := range w.Receivers[s] {
			levels = append(levels, rx.Level())
		}
	}
	return levels
}

// TestAggregateDecisionEquivalence is the acceptance criterion on the
// paper topologies: with in-network aggregation on, the prescribed levels
// every receiver settles at must match the flat-report baseline exactly.
// Aggregation changes the control plane's packet count and timing, not the
// information content, so the controller's decisions must be unchanged
// where the flat control plane is not itself overloaded.
func TestAggregateDecisionEquivalence(t *testing.T) {
	const dur = 120 * sim.Second
	build := []struct {
		name string
		mk   func(cfg WorldConfig) *World
	}{
		{"topologyA", func(cfg WorldConfig) *World { return NewWorldA(2, 0, cfg) }},
		{"topologyB", func(cfg WorldConfig) *World { return NewWorldB(4, 0, cfg) }},
	}
	for _, b := range build {
		t.Run(b.name, func(t *testing.T) {
			flat := b.mk(WorldConfig{Seed: 1, Traffic: CBR})
			flat.Run(dur)
			agg := b.mk(WorldConfig{Seed: 1, Traffic: CBR, Aggregate: true})
			agg.Run(dur)

			if agg.Aggregator == nil || agg.Aggregator.Absorbed == 0 {
				t.Fatal("aggregation world absorbed no reports — the layer is not installed")
			}
			if agg.Controller.AggregatesRecv == 0 {
				t.Fatal("controller consumed no aggregates")
			}
			if got, want := fmt.Sprint(finalLevels(agg)), fmt.Sprint(finalLevels(flat)); got != want {
				t.Errorf("final levels diverge with aggregation\nflat: %s\nagg:  %s", want, got)
			}
		})
	}
}

// TestAggregateFanInReduction pins the perf claim at a small-tree scale
// that stays test-fast: the aggregated twin's controller fan-in (control
// messages) and control bytes must come in well below the flat baseline.
// The full >=100x message and >=10x byte reductions at the 10^5-receiver
// ladder point are captured by `make bench-fanin` (BENCH_fanin.json).
func TestAggregateFanInReduction(t *testing.T) {
	const point = "tree,depth=2,branch=5,rxleaf=4" // 100 receivers
	run := func(aggregate bool) *World {
		_, tcfg, err := topology.Parse(point)
		if err != nil {
			t.Fatal(err)
		}
		e := NewRunEngine(1, 0)
		b, err := topology.Generate(e, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorld(e, b, WorldConfig{Seed: 1, Traffic: CBR, Aggregate: aggregate})
		w.Run(30 * sim.Second)
		return w
	}
	flat := run(false)
	agg := run(true)

	fm, am := flat.Controller.CtlMsgsRecv, agg.Controller.CtlMsgsRecv
	fb, ab := flat.Controller.CtlBytesRecv, agg.Controller.CtlBytesRecv
	if am == 0 || ab == 0 {
		t.Fatalf("aggregated controller saw no control traffic (msgs=%d bytes=%d)", am, ab)
	}
	t.Logf("ctl msgs: flat=%d agg=%d (%.1fx); ctl bytes: flat=%d agg=%d (%.1fx)",
		fm, am, float64(fm)/float64(am), fb, ab, float64(fb)/float64(ab))
	// Conservative floors for 100 receivers behind root branching 5; the
	// ratios grow linearly with receivers per subtree.
	if fm < 5*am {
		t.Errorf("controller fan-in reduced only %.1fx (flat %d, agg %d), want >= 5x",
			float64(fm)/float64(am), fm, am)
	}
	if fb < 3*ab {
		t.Errorf("control bytes reduced only %.1fx (flat %d, agg %d), want >= 3x",
			float64(fb)/float64(ab), fb, ab)
	}
	if agg.Controller.BatchesSent == 0 {
		t.Error("no suggestion batches sent")
	}
	// Aggregation must not degrade outcome quality at a scale the flat
	// control plane handles fine.
	ftr, fopt := flat.AllTraces()
	atr, aopt := agg.AllTraces()
	var fgood, agood int
	for i, tr := range ftr {
		if len(tr.Points()) > 0 && tr.Points()[len(tr.Points())-1].Level >= fopt[i] {
			fgood++
		}
	}
	for i, tr := range atr {
		if len(tr.Points()) > 0 && tr.Points()[len(tr.Points())-1].Level >= aopt[i] {
			agood++
		}
	}
	if agood < fgood {
		t.Errorf("aggregated run converged %d receivers to optimal, flat %d", agood, fgood)
	}
}

// TestScaleSpecsAggregateTwins: the fig_scale sweep emits an "/agg" twin
// per ladder point when asked.
func TestScaleSpecsAggregateTwins(t *testing.T) {
	specs := scaleSpecs(SweepConfig{Seed: 1, Quick: true, Topo: "tree", Aggregate: true})
	var flat, agg int
	for _, s := range specs {
		if len(s.Name) > 4 && s.Name[len(s.Name)-4:] == "/agg" {
			agg++
		} else {
			flat++
		}
	}
	if flat != 2 || agg != 2 {
		t.Errorf("quick tree ladder: %d flat / %d agg specs, want 2/2", flat, agg)
	}
}
