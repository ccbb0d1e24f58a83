package experiments

import (
	"testing"

	"toposense/internal/metrics"
	"toposense/internal/netsim"
	"toposense/internal/receiver"
	"toposense/internal/report"
	"toposense/internal/sim"
)

// TestAggregateRidesOutRepair is the -failat + -aggregate regression: cut
// both directions of Topology B's shared bottleneck mid-run with the
// aggregation layer installed. Pending aggregates absorbed before the cut
// must NOT be flushed down the stale pre-repair next hop (or into a
// guaranteed routing drop while the controller is unreachable) — the layer
// re-resolves the route at flush time, retains the pending state through the
// outage, and delivers the accumulated feedback on the post-repair route.
func TestAggregateRidesOutRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("full outage/repair run")
	}
	const (
		dur      = 300 * sim.Second
		failAt   = 100 * sim.Second
		outage   = 40 * sim.Second
		repairAt = failAt + outage
	)
	w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 7, Traffic: CBR, Aggregate: true}, Topo: "b,sessions=2",
		Duration: dur.Seconds(), FailAt: failAt.Seconds(), Outage: outage.Seconds()})
	inj := w.Faults

	// Snapshot the controller's aggregate fan-in at the repair: the
	// difference to the end of the run proves feedback flows again on the
	// repaired route.
	var atRepair int64
	sim.GlobalOf(w.Engine).After(repairAt+sim.Second, sim.Func(func() {
		atRepair = w.Controller.AggregatesRecv
	}))
	w.Run(dur)

	if inj.Failures != 2 || inj.Repairs != 2 {
		t.Fatalf("outage did not execute: %d failures, %d repairs", inj.Failures, inj.Repairs)
	}
	if w.Domain.Repairs == 0 {
		t.Error("no tree repairs despite the bottleneck being cut")
	}
	if w.Aggregator.Retained == 0 {
		t.Error("no flushes were retained during the outage — pending aggregates were emitted toward an unreachable controller")
	}
	if atRepair == 0 {
		t.Fatal("controller consumed no aggregates before the repair snapshot")
	}
	if w.Controller.AggregatesRecv <= atRepair {
		t.Errorf("aggregate fan-in stalled after the repair: %d at repair, %d at the end",
			atRepair, w.Controller.AggregatesRecv)
	}
	// The cut-off side rejoined and climbed back: every receiver ends at a
	// live subscription level.
	for s := range w.Receivers {
		for i, rx := range w.Receivers[s] {
			if rx.Level() < 1 {
				t.Errorf("session %d receiver %d ended at level %d after repair", s, i, rx.Level())
			}
		}
	}
}

// TestShutdownPoolBalance is the SuggestionBatch lifecycle regression: the
// downward splitter hands each node's consumed batch over with a one-batch
// delay, so stopping a world mid-interval used to strand the final batch of
// every node (and any unflushed upward aggregates). Shutdown must return all
// of it: live pooled-payload counts return to their pre-world baseline. The
// world is congested on purpose — Topology B's shared bottleneck drops
// aggregates and batches — and a dropped payload goes back to its pool too.
func TestShutdownPoolBalance(t *testing.T) {
	aggBefore, batchBefore := report.AggregatesLive(), report.BatchesLive()

	w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 1, Traffic: CBR, Aggregate: true}, Topo: "b,sessions=2", Duration: 50})
	aggDrops, batchDrops := countPooledDrops(w.Net)
	// A horizon deliberately misaligned with the report/flush cadence so
	// batches and pending aggregates are in flight when the world stops.
	w.Run(45*sim.Second + 123*sim.Millisecond)

	if w.Aggregator.Batches == 0 {
		t.Fatal("no suggestion batches were ever split — the regression path was not exercised")
	}
	w.Shutdown()
	// Control packets still in flight at the stop hold pooled payloads the
	// shutdown cannot reach; drain them — the stopped controller releases
	// arriving aggregates, the stopped aggregator takes ownership of
	// straggler batches — then re-drain the aggregator (Stop is idempotent
	// and documented to recover batches delivered between two Stops).
	w.Engine.RunUntil(50 * sim.Second)
	w.Aggregator.Stop()

	if aggDrops.Load()+batchDrops.Load() == 0 {
		t.Fatal("no pooled payload was dropped — the drop path was not exercised")
	}
	if got := report.AggregatesLive(); got != aggBefore {
		t.Errorf("aggregates still live after Shutdown: %d, want the baseline %d (%d dropped)",
			got, aggBefore, aggDrops.Load())
	}
	if got := report.BatchesLive(); got != batchBefore {
		t.Errorf("suggestion batches still live after Shutdown: %d, want the baseline %d (%d dropped)",
			got, batchBefore, batchDrops.Load())
	}
}

// TestDepartPurgePoolBalance extends the pool-balance invariant across the
// departure lifecycle. A receiver's Depart sends a Deregister up its report
// path; every aggregation node on the way purges the departed receiver's
// folded feedback from its pending aggregate, so no stale entry rides a
// later flush into the controller and re-registers the ghost. The purge
// releases emptied aggregates back to the pool, so the balance invariant
// (live == baseline) must survive a run with churn.
func TestDepartPurgePoolBalance(t *testing.T) {
	aggBefore, batchBefore := report.AggregatesLive(), report.BatchesLive()

	w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 3, Traffic: CBR, Aggregate: true}, Topo: "b,sessions=2", Duration: 50})
	// Depart one receiver per session mid-run, deliberately misaligned with
	// the report/flush cadence so each departing receiver has feedback
	// pending at upstream aggregation nodes when its Deregister climbs.
	var departed []netsim.NodeID
	sim.GlobalOf(w.Engine).After(20*sim.Second+777*sim.Millisecond, sim.Func(func() {
		for s := range w.Receivers {
			departed = append(departed, w.Receivers[s][0].Node().ID)
			w.Receivers[s][0].Depart()
		}
	}))
	w.Run(45*sim.Second + 123*sim.Millisecond)

	if w.Aggregator.Purged == 0 {
		t.Error("no pending entries purged — the Deregisters never crossed the aggregation layer")
	}
	if got, want := w.Controller.DeregistersRecv, int64(len(departed)); got != want {
		t.Errorf("controller consumed %d deregistrations, want %d", got, want)
	}
	for _, id := range w.Controller.RegisteredReceivers() {
		for _, node := range departed {
			if id.Node == node {
				t.Errorf("departed receiver at node %d still registered at the end — a stale flush re-registered the ghost", node)
			}
		}
	}

	w.Shutdown()
	w.Engine.RunUntil(50 * sim.Second)
	w.Aggregator.Stop()

	if got := report.AggregatesLive(); got != aggBefore {
		t.Errorf("aggregates still live after a churn run: %d, want the baseline %d", got, aggBefore)
	}
	if got := report.BatchesLive(); got != batchBefore {
		t.Errorf("suggestion batches still live after a churn run: %d, want the baseline %d", got, batchBefore)
	}
}

// TestAggregatedPoolArraysSteady is the world-level guard on the run
// phase's pools. Once an aggregated world has carried three decision
// intervals, every subtree's payload working set is pooled, so from then
// to the end of the run folds, merges, flushes and batch splits must take
// every aggregate and suggestion batch entry array from the pools and make
// none. The pools that joins and first traffic grow fill more slowly: after
// twenty intervals the next 20 simulated seconds must take every link ring
// array, per-node pending list and split scratch from them too. Under
// churn (every receiver joining and leaving with an 8 s mean dwell) the
// trees keep changing shape, so every pool is held to the twenty-interval
// warm-up; then the same holds for the receivers' layer tables, which come
// back from departed incarnations, and for the link rings, which give their
// array back whenever they empty, so a rejoin's burst takes one another
// ring left. Traces only ever grow, so their pool keeps making arrays,
// fewer than the points the window adds.
func TestAggregatedPoolArraysSteady(t *testing.T) {
	names := []string{"aggregate entry", "suggestion batch entry", "pending list", "split scratch", "layer table", "link ring"}
	const payload = 2 // without churn the first two pools are steady from three intervals on
	for _, churn := range []float64{0, 8} {
		w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 1, Traffic: CBR, Aggregate: true},
			Topo: "tree,depth=3,branch=8,rxleaf=2", Churn: churn, Duration: 100})
		interval := w.Controller.Algorithm().Config().Interval
		warm := 20 * interval
		made := func() []int64 {
			return []int64{report.AggregateArraysMade(), report.BatchArraysMade(), w.Aggregator.PendingArraysMade(),
				report.SplitArraysMade(), receiver.LayerTablesMade(), w.Net.RingArraysMade()}
		}
		points := func() (n int) {
			for _, trs := range w.Traces {
				for _, tr := range trs {
					n += len(tr.Points())
				}
			}
			return n
		}
		w.Run(3 * interval)
		early := made()
		w.Engine.RunUntil(warm)
		before, pts, traces := made(), points(), metrics.TraceArraysMade()
		if churn == 0 {
			copy(before[:payload], early)
		}
		merged, batches, joins := w.Aggregator.Merged, w.Aggregator.Batches, int64(0)
		if w.Churn != nil {
			joins = w.Churn.Joins
		}
		w.Engine.RunUntil(warm + 20*sim.Second)
		after := made()
		added, traceMade := points()-pts, metrics.TraceArraysMade()-traces
		rings, ringsWarm := after[len(after)-1]-before[len(before)-1], before[len(before)-1]
		t.Logf("churn %g: after the %v warm-up (%d ring arrays made) the next 20 s merged %d aggregates, split %d batches, "+
			"made %d ring arrays, added %d trace points and made %d trace arrays",
			churn, warm, ringsWarm, w.Aggregator.Merged-merged, w.Aggregator.Batches-batches, rings, added, traceMade)
		if w.Aggregator.Merged == merged || w.Aggregator.Batches == batches {
			t.Fatalf("churn %g: no aggregates merged or batches split after the warm-up — the pools were not exercised", churn)
		}
		if churn > 0 && w.Churn.Joins-joins < 500 {
			t.Fatalf("churn %g: only %d joins after the warm-up — the layer pool was not exercised", churn, w.Churn.Joins-joins)
		}
		for i, name := range names {
			from := warm
			if churn == 0 && i < payload {
				from = 3 * interval
			}
			if got := after[i] - before[i]; got != 0 {
				t.Errorf("churn %g: the %s pool made %d arrays after %v, want 0", churn, name, got, from)
			}
		}
		if traceMade >= int64(max(added, 1)) {
			t.Errorf("churn %g: the trace pool made %d arrays for %d points, want fewer than the points", churn, traceMade, added)
		}
		w.Shutdown()
	}
}

// TestShardAggregateDecisionEquivalence is the combined-flags acceptance:
// -shards N -aggregate must land every receiver on the same final level as
// the serial flat-report baseline. Aggregation changes the control plane's
// packet economy, sharding changes the execution — neither may change the
// decisions.
func TestShardAggregateDecisionEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the world twice")
	}
	const dur = 120 * sim.Second
	mk := func(shards int, aggregate bool) *World {
		w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 1, Traffic: CBR, Aggregate: aggregate}, Topo: "b,sessions=4", Shards: shards, Duration: dur.Seconds()})
		w.Run(dur)
		return w
	}
	flat := mk(0, false)
	agg := mk(4, true)
	if agg.Aggregator == nil || agg.Aggregator.Absorbed == 0 {
		t.Fatal("sharded aggregation world absorbed no reports")
	}
	if got, want := levelsString(agg), levelsString(flat); got != want {
		t.Errorf("final levels diverge: serial flat %s, sharded aggregated %s", want, got)
	}
}

func levelsString(w *World) string {
	out := ""
	for s := range w.Receivers {
		for _, rx := range w.Receivers[s] {
			out += string(rune('0' + rx.Level()))
		}
	}
	return out
}
