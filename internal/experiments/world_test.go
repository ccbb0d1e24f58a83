package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/report"
	"toposense/internal/sim"
	"toposense/internal/source"
	"toposense/internal/trace"
)

// matrixTopo is small enough to run forty times and has generator-emitted
// domain labels, so every plane and both engines assemble on it.
const matrixTopo = "tree,depth=3,branch=4,rxleaf=2"

// assemble builds sc's world outside any Spec, failing the test on error.
func assemble(t testing.TB, sc Scenario) *World {
	t.Helper()
	w, err := sc.Assemble(&Meter{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// countPooledDrops counts the pooled control payloads a network drops. The
// drop hands each back to its pool, so a pool-balance check holds exactly
// on a world where this count is not zero. Atomic: shards drop
// concurrently.
func countPooledDrops(n *netsim.Network) (aggregates, batches *atomic.Int64) {
	aggregates, batches = new(atomic.Int64), new(atomic.Int64)
	n.AttachProbe(&netsim.FuncProbe{OnDrop: func(l *netsim.Link, p *netsim.Packet) {
		switch p.Payload.(type) {
		case *report.Aggregate:
			aggregates.Add(1)
		case *report.SuggestionBatch:
			batches.Add(1)
		}
	}})
	return aggregates, batches
}

// TestWorldMatrix is the composition matrix as one table: every engine x
// control plane x churn combination assembles on the one assembler, keeps
// its receivers in range and inside their own domain's agent, returns every
// pooled payload on Shutdown (live == baseline, dropped ones included),
// and produces the same traces on the sharded engine as on the serial one.
func TestWorldMatrix(t *testing.T) {
	const dur = 24 * sim.Second
	planes := []struct {
		name string
		cfg  WorldConfig
	}{
		{"flat", WorldConfig{}},
		{"aggregated", WorldConfig{Aggregate: true}},
		{"per-domain", WorldConfig{Plane: PlanePerDomain}},
		{"federated", WorldConfig{Plane: PlaneFederated}},
		{"rlm", WorldConfig{Plane: PlaneRLM}},
	}
	for _, p := range planes {
		for _, period := range []sim.Time{0, 4 * sim.Second} {
			var serial string
			for _, shards := range []int{0, 4} {
				name := fmt.Sprintf("%s/churn=%v/shards=%d", p.name, period, shards)
				aggBefore, batchBefore := report.AggregatesLive(), report.BatchesLive()

				cfg := p.cfg
				cfg.Seed, cfg.Traffic = 1, CBR
				w, err := Scenario{WorldConfig: cfg, Topo: matrixTopo, Shards: shards, Duration: dur.Seconds()}.Assemble(&Meter{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if period > 0 {
					w.ChurnSlots(period, w.Slots())
				}
				w.Run(dur)

				if period > 0 && (w.Churn.Joins == 0 || w.Churn.Leaves == 0) {
					t.Errorf("%s: churn never cycled a slot (%d joins, %d leaves)", name, w.Churn.Joins, w.Churn.Leaves)
				}
				var sb strings.Builder
				for _, sl := range w.Slots() {
					s, i := sl.Session, sl.Index
					lvl := w.Level(s, i)
					if m := w.Live(s, i); m == nil {
						if period == 0 {
							t.Errorf("%s: slot %v has no live receiver without churn", name, sl)
						}
					} else if lvl < 1 || lvl > source.DefaultLayers {
						t.Errorf("%s: slot %v ended at level %d, outside [1, %d]", name, sl, lvl, source.DefaultLayers)
					}
					fmt.Fprintf(&sb, "slot %v:", sl)
					for _, pt := range w.Traces[s][i].Points() {
						fmt.Fprintf(&sb, " %d@%d", pt.Level, int64(pt.At))
					}
					sb.WriteByte('\n')
				}
				var deregs int64
				for k, c := range w.Controllers {
					deregs += c.DeregistersRecv
					if w.Scopes != nil {
						if n := w.CrossDomainRegs(k); n != 0 {
							t.Errorf("%s: domain %d's agent holds %d registrations from other domains", name, w.Scopes[k], n)
						}
					}
				}
				if w.Churn != nil {
					fmt.Fprintf(&sb, "joins %d leaves %d deregisters %d\n", w.Churn.Joins, w.Churn.Leaves, deregs)
				}

				w.Shutdown()
				w.Engine.RunUntil(dur + 5*sim.Second)
				w.Aggregator.Stop()
				if got := report.AggregatesLive(); got != aggBefore {
					t.Errorf("%s: %d aggregates live after Shutdown, want %d", name, got, aggBefore)
				}
				if got := report.BatchesLive(); got != batchBefore {
					t.Errorf("%s: %d suggestion batches live after Shutdown, want %d", name, got, batchBefore)
				}
				// Every pooled packet — media, reports, suggestions, batches —
				// is back in the free list: no Release leaked, none doubled.
				if live := w.Net.PacketsLive(); live != 0 {
					t.Errorf("%s: %d pooled packets live after Shutdown and drain", name, live)
				}

				if shards == 0 {
					serial = sb.String()
				} else if got := sb.String(); got != serial {
					t.Errorf("%s diverges from the serial engine\n%s", name, firstDiff(serial, got))
				}
			}
		}
	}
}

// TestObsWiringReachesEveryComponent is the regression for the obs wiring
// that used to exist four times and skip a different component each time:
// through a Spec with Obs set, every count the export reads from a
// component must equal that component's own field, on an aggregated and on
// a federated run, both under churn.
func TestObsWiringReachesEveryComponent(t *testing.T) {
	const dur = 20 * sim.Second
	run := func(cfg WorldConfig) (*World, map[string]int64) {
		var w *World
		spec := NewSpec("obswiring", "obswiring/"+cfg.Plane.String(), 1, dur, func(m *Meter) (any, error) {
			var err error
			if w, err = (Scenario{WorldConfig: cfg, Topo: matrixTopo, Duration: dur.Seconds()}).Assemble(m); err != nil {
				return nil, err
			}
			w.ChurnSlots(4*sim.Second, w.Slots()[:4])
			w.Run(dur)
			return nil, nil
		})
		spec.Obs = true
		res := spec.Execute(0)
		if res.Failed() {
			t.Fatal(res.Err)
		}
		counters := make(map[string]int64)
		for _, c := range res.Obs.Counters {
			counters[c.Name] = c.Value
		}
		return w, counters
	}
	check := func(name string, c map[string]int64, want map[string]int64, nonZero ...string) {
		t.Helper()
		for k, v := range want {
			if got, ok := c[k]; !ok || got != v {
				t.Errorf("%s: %s exported %d (present %v), component counted %d", name, k, got, ok, v)
			}
		}
		for _, k := range nonZero {
			if c[k] == 0 {
				t.Errorf("%s: %s is 0; the run never exercised it", name, k)
			}
		}
	}
	derived := func(w *World) map[string]int64 {
		var steps, capped int64
		for _, ctrl := range w.Controllers {
			steps += ctrl.StepsRun
			capped += ctrl.SuggestionsCapped
		}
		m := map[string]int64{
			"mcast_grafts":                  w.Domain.Grafts,
			"mcast_prunes":                  w.Domain.Prunes,
			"mcast_repairs":                 w.Domain.Repairs,
			"controller_passes":             steps,
			"federation_capped_suggestions": capped,
			"churn_joins":                   w.Churn.Joins,
			"churn_leaves":                  w.Churn.Leaves,
			"agg_reports_absorbed":          0,
			"agg_merges":                    0,
			"agg_flushes":                   0,
			"agg_batches":                   0,
			"federation_exports":            0,
			"federation_reconciles":         0,
			"federation_budget_churn":       0,
		}
		if a := w.Aggregator; a != nil {
			m["agg_reports_absorbed"], m["agg_merges"], m["agg_flushes"], m["agg_batches"] =
				a.Absorbed, a.Merged, a.Flushes, a.Batches
		}
		if p := w.Parent; p != nil {
			m["federation_exports"], m["federation_reconciles"], m["federation_budget_churn"] =
				p.ExportsRecv, p.Reconciles, p.BudgetChanges
		}
		return m
	}

	w, c := run(WorldConfig{Seed: 1, Traffic: CBR, Aggregate: true})
	check("aggregated", c, derived(w), "mcast_grafts", "mcast_prunes", "controller_passes",
		"churn_joins", "churn_leaves", "agg_reports_absorbed", "agg_merges", "agg_flushes", "agg_batches")

	w, c = run(WorldConfig{Seed: 1, Traffic: CBR, Plane: PlaneFederated})
	check("federated", c, derived(w), "mcast_grafts", "mcast_prunes", "controller_passes",
		"churn_joins", "churn_leaves", "federation_exports", "federation_reconciles", "federation_budget_churn")
}

// TestChurnSamplingFollowsLiveIncarnation pins the live-incarnation
// accessor the TSV export samples through: on a churned Topology B world a
// 0.5 s sampler must read what the slot's trace recorded at every instant —
// 0 while departed, the new incarnation's level after each rejoin — not the
// first incarnation's level frozen at its departure.
func TestChurnSamplingFollowsLiveIncarnation(t *testing.T) {
	const dur = 120 * sim.Second
	w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 1, Traffic: CBR}, Topo: "b,sessions=2", Duration: dur.Seconds()})
	sp := trace.NewSampler(w.Engine, 500*sim.Millisecond)
	for _, sl := range w.Slots() {
		s, i := sl.Session, sl.Index
		sp.Probe(fmt.Sprint(sl), func() float64 { return float64(w.Level(s, i)) })
	}
	sp.Start()
	w.ChurnSlots(10*sim.Second, w.Slots())
	w.Run(dur)

	for _, sl := range w.Slots() {
		tr, series := w.Traces[sl.Session][sl.Index], sp.Series(fmt.Sprint(sl))
		rejoins, prev := 0, 1.0
		for k := 0; k < series.Len(); k++ {
			at, v := series.At(k)
			// A sample taken in the very instant of a change may land on
			// either side of it; every other sample must agree with the trace.
			if want := tr.LevelAt(at); int(v) != want && tr.LevelAt(at-1) == want {
				t.Fatalf("slot %v at %v: sampled level %v, trace says %d", sl, at, v, want)
			}
			if prev == 0 && v > 0 {
				rejoins++
			}
			prev = v
		}
		if rejoins == 0 {
			t.Errorf("slot %v: the sampled series never came back from 0 in %v of 10 s churn (%d trace changes)",
				sl, dur, tr.Changes(0, dur))
		}
	}
}

// TestWorldStartMallocs pins what setting a paper world up costs the
// allocator: Scenario.Assemble of Topology B with 16 VBR sessions (spec
// parse, generation, assembly) and starting the world. Most of it used to be one malloc per start-up timer
// (7 004 in all, 73 % of them event slots); the queue now carves slots from
// slabs.
func TestWorldStartMallocs(t *testing.T) {
	sc := Scenario{WorldConfig: WorldConfig{Seed: 1, Traffic: VBR3}, Topo: "b,sessions=16", Duration: 1}
	got := testing.AllocsPerRun(5, func() {
		assemble(t, sc).Start()
	})
	if got > 4000 {
		t.Errorf("generate + assemble + start of b,sessions=16 VBR: %.0f mallocs, want at most 4000", got)
	}
	t.Logf("%.0f mallocs", got)
}

// TestFlatPlaneSteadyStateMallocs pins the flat control plane's allocation
// contract end to end, in a whole running world rather than a
// microbenchmark: between two controller passes — media flowing, every
// receiver reporting twice a second over pooled packets into the
// controller's table, discovery re-recording an unchanged tree — the run
// allocates next to nothing per report consumed.
func TestFlatPlaneSteadyStateMallocs(t *testing.T) {
	w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 1, Traffic: CBR}, Topo: matrixTopo, Duration: 75})
	e, c := w.Engine, w.Controller
	interval := c.Algorithm().Config().Interval
	w.Run(15*interval + 100*sim.Millisecond) // settled, and just past a pass
	var worst float64
	for round := 0; round < 3; round++ {
		next := e.Now() - 100*sim.Millisecond + interval
		steps, reports := c.StepsRun, c.ReportsRecv
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.RunUntil(next - 100*sim.Millisecond)
		runtime.ReadMemStats(&after)
		if c.StepsRun != steps {
			t.Fatal("a controller pass ran inside the measured window")
		}
		got := c.ReportsRecv - reports
		if got < int64(len(w.Slots())) {
			t.Fatalf("only %d reports consumed between two passes", got)
		}
		per := float64(after.Mallocs-before.Mallocs) / float64(got)
		t.Logf("round %d: %d mallocs over %d reports (%.3f per report)", round, after.Mallocs-before.Mallocs, got, per)
		if per > worst {
			worst = per
		}
		e.RunUntil(next + 100*sim.Millisecond)
	}
	if worst > 0.05 {
		t.Errorf("%.3f mallocs per report between two passes, want at most 0.05", worst)
	}
}

// TestChurnSteadyStateAllocs pins what membership change costs the
// allocator end to end. In a churned, aggregated world warmed up to T, the
// window (T, 2T] may allocate at most five objects per join+leave pair in
// total: the new incarnation's receiver, its layer table, its bound report
// timer, the harness's OnChange closure and the trace's growth. Grafts,
// prunes, leave timers, suggestion repeats, Register and Deregister must
// cost nothing — the window holds more grafts and prunes than pairs, so one
// allocation per graft or prune fails it. Churn is fast (1 s mean dwell) so
// that the per-pass cost of discovery re-walking a changed tree, which
// scales with the tree and not with membership changes, stays small per
// pair.
func TestChurnSteadyStateAllocs(t *testing.T) {
	const T = 40 * sim.Second
	w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 1, Traffic: CBR, Aggregate: true},
		Topo: matrixTopo, Churn: 1, Duration: (2 * T).Seconds()})
	e := w.Engine
	w.Run(T)
	joins, leaves := w.Churn.Joins, w.Churn.Leaves
	tree := w.Domain.Grafts + w.Domain.Prunes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.RunUntil(2 * T)
	runtime.ReadMemStats(&after)
	pairs := float64(w.Churn.Joins-joins+w.Churn.Leaves-leaves) / 2
	tree = w.Domain.Grafts + w.Domain.Prunes - tree
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("(T, 2T]: %d mallocs, %.1f join+leave pairs (%.2f per pair), %d grafts+prunes",
		mallocs, pairs, float64(mallocs)/pairs, tree)
	if pairs < 50 || float64(tree) <= pairs {
		t.Fatalf("the window is too quiet to measure: %.1f pairs, %d grafts+prunes", pairs, tree)
	}
	if per := float64(mallocs) / pairs; per > 5 {
		t.Errorf("%.2f mallocs per join+leave pair, want at most 5", per)
	}
}
