package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/obs"
	"toposense/internal/report"
	"toposense/internal/sim"
	"toposense/internal/source"
	"toposense/internal/topology"
	"toposense/internal/trace"
)

// matrixTopo is small enough to run forty times and has generator-emitted
// domain labels, so every plane and both engines assemble on it.
const matrixTopo = "tree,depth=3,branch=4,rxleaf=2"

func parsedBuild(t *testing.T, e sim.Runner, spec string) *topology.Build {
	t.Helper()
	_, tcfg, err := topology.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := topology.Generate(e, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// countPooledDrops counts the pooled control payloads a network loses to
// congestion. A dropped packet's payload falls to the garbage collector,
// never back to its pool — the documented drop contract, not a leak — so
// the pool-balance checks exempt these. Atomic: shards drop concurrently.
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
// its receivers in range and inside their own domain's agent, returns its
// pooled payloads on Shutdown, and produces the same traces on the sharded
// engine as on the serial one.
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

				e := NewRunEngine(1, shards)
				cfg := p.cfg
				cfg.Seed, cfg.Traffic = 1, CBR
				w, err := AssembleWorld(e, parsedBuild(t, e, matrixTopo), cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				aggDropped, batchDropped := countPooledDrops(w.Net)
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
				if got, want := report.AggregatesLive(), aggBefore+aggDropped.Load(); got != want {
					t.Errorf("%s: %d aggregates live after Shutdown, want %d", name, got, want)
				}
				if got, want := report.BatchesLive(), batchBefore+batchDropped.Load(); got != want {
					t.Errorf("%s: %d suggestion batches live after Shutdown, want %d", name, got, want)
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
// through a Spec with Obs set, an aggregated run must export what its
// aggregator counted, and a federated run what its leaves and parent did.
func TestObsWiringReachesEveryComponent(t *testing.T) {
	const dur = 20 * sim.Second
	run := func(cfg WorldConfig) (*World, map[string]int64) {
		var w *World
		spec := NewSpec("obswiring", "obswiring/"+cfg.Plane.String(), 1, dur, func(m *Meter) (any, error) {
			e := NewRunEngine(1, 0)
			w = NewWorld(e, parsedBuild(t, e, matrixTopo), cfg)
			m.ObserveWorld(w)
			w.ChurnSlots(4*sim.Second, w.Slots()[:4])
			w.Run(dur)
			return nil, nil
		})
		spec.Obs = &obs.Options{}
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

	w, c := run(WorldConfig{Seed: 1, Traffic: CBR, Aggregate: true})
	if got := c["agg_reports_absorbed"]; got == 0 || got != w.Aggregator.Absorbed {
		t.Errorf("agg_reports_absorbed exported %d, aggregator absorbed %d", got, w.Aggregator.Absorbed)
	}
	if got := c["churn_leaves"]; got == 0 || got != w.Churn.Leaves {
		t.Errorf("churn_leaves exported %d, driver applied %d", got, w.Churn.Leaves)
	}

	w, c = run(WorldConfig{Seed: 1, Traffic: CBR, Plane: PlaneFederated})
	if c["federation_exports"] == 0 {
		t.Error("federated run exported federation_exports 0: the parent was never wired")
	}
	var steps int64
	for _, ctrl := range w.Controllers {
		steps += ctrl.StepsRun
	}
	if got := c["controller_passes"]; got == 0 || got != steps {
		t.Errorf("controller_passes exported %d, leaves ran %d passes", got, steps)
	}
}

// TestChurnSamplingFollowsLiveIncarnation pins the live-incarnation
// accessor the TSV export samples through: on a churned Topology B world a
// 0.5 s sampler must read what the slot's trace recorded at every instant —
// 0 while departed, the new incarnation's level after each rejoin — not the
// first incarnation's level frozen at its departure.
func TestChurnSamplingFollowsLiveIncarnation(t *testing.T) {
	const dur = 120 * sim.Second
	w := NewWorldB(2, 0, WorldConfig{Seed: 1, Traffic: CBR})
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
// allocator: generating Topology B with 16 VBR sessions, assembling the
// world and starting it. Most of it used to be one malloc per start-up timer
// (7 004 in all, 73 % of them event slots); the queue now carves slots from
// slabs.
func TestWorldStartMallocs(t *testing.T) {
	_, tcfg, err := topology.Parse("b,sessions=16")
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(5, func() {
		e := NewRunEngine(1, 0)
		NewWorld(e, topology.MustGenerate(e, tcfg), WorldConfig{Seed: 1, Traffic: VBR3}).Start()
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
// allocates next to nothing per report consumed. (The passes themselves
// keep one closure per suggestion, the mid-interval repeat.)
func TestFlatPlaneSteadyStateMallocs(t *testing.T) {
	e := NewRunEngine(1, 0)
	w := NewWorld(e, parsedBuild(t, e, matrixTopo), WorldConfig{Seed: 1, Traffic: CBR})
	c := w.Controller
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
