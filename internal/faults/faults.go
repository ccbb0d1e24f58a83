// Package faults injects deterministic link failures into a netsim network.
//
// The paper's robustness analysis (Figure 10) varies only how *stale* the
// controller's topology snapshot is; the network itself never changes. A
// deployable system must also survive the topology changing under it —
// links failing and recovering mid-session — which is exactly where stale
// topology hurts most. This package supplies the failure side of that
// experiment: an Injector schedules link down/up events on the simulation
// engine, either as an explicit one-shot schedule (fail at t, repair at
// t+outage) or as a renewal process with exponential time-to-failure and
// time-to-repair drawn from the engine's seeded RNG, so every run is
// reproducible.
//
// All state changes go through Link.SetDown / Link.SetUp, which drop the
// traffic the link was carrying, reroute unicast around the failure, and
// notify the multicast layer so it can repair its trees. An Injector that
// schedules nothing is completely inert: it touches neither the event
// queue nor the RNG.
package faults

import (
	"fmt"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// Injector schedules failure and repair events for links of one network.
// Create it with New, add schedules before or during the run, and read the
// counters afterwards. All methods must be called on the simulation
// goroutine (like everything else bound to the engine).
type Injector struct {
	engine sim.Scheduler

	// Failures and Repairs count state transitions actually applied
	// (a SetDown on an already-down link does not count).
	Failures, Repairs int64

	// OnChange, if set, observes every applied transition; tests and
	// experiments use it to timestamp the event in their traces.
	OnChange func(l *netsim.Link, down bool)

	handles []sim.Handle
}

// New creates an injector bound to the network's engine. Fault injection
// is not supported on a partitioned network: a failure invalidates routes
// and repairs trees across shard boundaries mid-window, which the
// conservative parallel engine cannot order. Run fault experiments on the
// single-threaded engine (shards = 1).
func New(net *netsim.Network) *Injector {
	if net.Partitioned() {
		panic("faults: fault injection is not supported on a partitioned network; run with a single shard")
	}
	return &Injector{engine: net.Engine()}
}

// apply flips one link and does the bookkeeping.
func (in *Injector) apply(l *netsim.Link, down bool) {
	if l.Down() == down {
		return
	}
	if down {
		l.SetDown()
		in.Failures++
	} else {
		l.SetUp()
		in.Repairs++
	}
	if in.OnChange != nil {
		in.OnChange(l, down)
	}
}

// FailAt schedules the link to go down at absolute simulation time t.
func (in *Injector) FailAt(t sim.Time, l *netsim.Link) {
	in.track(in.engine.At(t, sim.Func(func() { in.apply(l, true) })))
}

// RepairAt schedules the link to come back up at absolute time t.
func (in *Injector) RepairAt(t sim.Time, l *netsim.Link) {
	in.track(in.engine.At(t, sim.Func(func() { in.apply(l, false) })))
}

// Outage schedules one down/up cycle: the link fails at start and is
// repaired at start+duration. It panics on a nonpositive duration, which is
// always a misconfigured experiment.
func (in *Injector) Outage(start, duration sim.Time, links ...*netsim.Link) {
	if duration <= 0 {
		panic(fmt.Sprintf("faults: outage duration must be positive, got %v", duration))
	}
	for _, l := range links {
		in.FailAt(start, l)
		in.RepairAt(start+duration, l)
	}
}

// Flap runs the link as a renewal process from time start: up for an
// exponentially distributed period with mean mtbf, then down for an
// exponentially distributed period with mean mttr, repeating until the run
// ends. Draws come from the engine's seeded RNG in schedule order, so the
// process is deterministic per seed. Several flapping links interleave
// their draws by event time, which is still deterministic.
func (in *Injector) Flap(start sim.Time, mtbf, mttr sim.Time, l *netsim.Link) {
	if mtbf <= 0 || mttr <= 0 {
		panic(fmt.Sprintf("faults: Flap needs positive mtbf/mttr, got %v/%v", mtbf, mttr))
	}
	var up, down func()
	up = func() {
		wait := sim.Time(in.engine.Rand().ExpFloat64() * float64(mtbf))
		in.track(in.engine.After(wait, sim.Func(func() {
			in.apply(l, true)
			down()
		})))
	}
	down = func() {
		wait := sim.Time(in.engine.Rand().ExpFloat64() * float64(mttr))
		in.track(in.engine.After(wait, sim.Func(func() {
			in.apply(l, false)
			up()
		})))
	}
	in.track(in.engine.At(start, sim.Func(up)))
}

// Stop cancels every event the injector still has pending. Links keep
// whatever state they are in; call SetUp on them directly if a test needs
// the network healthy again.
func (in *Injector) Stop() {
	for _, h := range in.handles {
		in.engine.Cancel(h)
	}
	in.handles = in.handles[:0]
}

func (in *Injector) track(h sim.Handle) {
	in.handles = append(in.handles, h)
}
