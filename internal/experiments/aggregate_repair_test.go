package experiments

import (
	"testing"

	"toposense/internal/netsim"
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
	sim.GlobalOf(w.Engine).Schedule(repairAt+sim.Second, func() {
		atRepair = w.Controller.AggregatesRecv
	})
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
	sim.GlobalOf(w.Engine).Schedule(20*sim.Second+777*sim.Millisecond, func() {
		for s := range w.Receivers {
			departed = append(departed, w.Receivers[s][0].Node().ID)
			w.Receivers[s][0].Depart()
		}
	})
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
