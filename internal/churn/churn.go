// Package churn drives deterministic Poisson membership churn: receivers
// leaving a session and (re)joining it as a renewal process, the workload of
// the fig_churn study. The paper's evaluation holds the receiver set fixed;
// a deployable multicast controller must also survive the membership
// changing under it — departures that must not leave ghost registrations,
// prune cascades racing repair, budgets holding while a domain drains.
//
// A Driver owns a set of slots. Each slot is one membership position that
// alternates between joined (exponentially distributed dwell time, mean
// meanOn) and departed (mean absence meanOff), invoking caller-supplied
// join/leave callbacks at each transition. Slots start joined — the harness
// builds the initial receiver before the run — so the first event is a
// departure.
//
// Determinism contract: the driver schedules everything on the engine's
// global (stop-the-world) context, the one run-time context the run-wide
// RNG may be drawn from under the sharded engine (see sim.Scheduler). Its
// callbacks therefore run with every shard quiescent and may freely depart
// receivers, start replacement incarnations, and walk multicast state —
// identical seeds produce identical join/leave sequences on the serial and
// sharded engines alike. A Driver with no slots is completely inert: it
// touches neither the event queue nor the RNG.
package churn

import (
	"fmt"

	"toposense/internal/netsim"
	"toposense/internal/obs"
	"toposense/internal/sim"
)

// Driver schedules join/leave renewal events for membership slots of one
// network. Create it with New, add slots before the run starts, and read
// the counters afterwards. Unlike fault injection, churn is supported on
// partitioned networks: every transition runs at a window barrier.
type Driver struct {
	sched sim.Scheduler // global (stop-the-world) context
	o     *obs.Obs

	// Joins and Leaves count transitions applied. All mutation happens in
	// the single-threaded global context; read them while the engine is
	// idle (setup or after the run).
	Joins, Leaves int64

	// pending[i] is slot i's one scheduled transition.
	pending []sim.Handle
	stopped bool
}

// New creates a driver bound to the network's engine.
func New(net *netsim.Network) *Driver {
	return &Driver{sched: sim.GlobalOf(net.Engine())}
}

// SetObs wires the observability bundle; churn transitions then feed the
// churn_joins / churn_leaves counters.
func (d *Driver) SetObs(o *obs.Obs) { d.o = o }

// Slots returns how many membership slots are registered.
func (d *Driver) Slots() int { return len(d.pending) }

// Slot registers one membership position. The slot is joined at start and
// departs after an Exp(meanOn) dwell; thereafter it alternates, rejoining
// after Exp(meanOff) absences. leave and join run in the global context at
// each transition and may mutate the whole model. Call before the run
// begins: registration draws the slot's first dwell from the run-wide RNG.
func (d *Driver) Slot(start, meanOn, meanOff sim.Time, join, leave func()) {
	if meanOn <= 0 || meanOff <= 0 {
		panic(fmt.Sprintf("churn: nonpositive mean dwell (on %v, off %v)", meanOn, meanOff))
	}
	if join == nil || leave == nil {
		panic("churn: Slot with nil callback")
	}
	slot := len(d.pending)
	var up, down func()
	down = func() {
		if d.stopped {
			return
		}
		leave()
		d.Leaves++
		if d.o != nil {
			d.o.ChurnLeaves.Inc()
		}
		d.pending[slot] = d.sched.Schedule(d.exp(meanOff), up)
	}
	up = func() {
		if d.stopped {
			return
		}
		join()
		d.Joins++
		if d.o != nil {
			d.o.ChurnJoins.Inc()
		}
		d.pending[slot] = d.sched.Schedule(d.exp(meanOn), down)
	}
	d.pending = append(d.pending, d.sched.At(start+d.exp(meanOn), down))
}

// Stop cancels every pending transition. Slots stay in whatever membership
// state they were in; the driver cannot be restarted.
func (d *Driver) Stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	for _, h := range d.pending {
		d.sched.Cancel(h)
	}
}

// exp draws an exponential interval with the given mean from the run-wide
// stream. Draws happen at slot registration (engine idle) or inside a
// global event — both contexts the sharded engine permits.
func (d *Driver) exp(mean sim.Time) sim.Time {
	return sim.Time(d.sched.Rand().ExpFloat64() * float64(mean))
}
