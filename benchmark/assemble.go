package main

// Every call into toposense/internal/... that builds or starts a world
// lives in this file. It mirrors the toposense branch of cmd/toposim
// (`toposim -topo SPEC [-traffic vbr3] [-aggregate] [-churn P] -seed N`)
// step for step, including the churn slot wiring, so the benchmark
// measures what users run; TestParityWithToposim holds it to that. A
// refactor of the program's assembly API has exactly these signatures to
// keep or to update here:
//
//	topology.Parse, topology.Generate, experiments.NewRunEngine,
//	experiments.NewWorld, experiments.WorldConfig, churn.New,
//	(*churn.Driver).Slot, receiver.New, (*receiver.Receiver).Start/Depart,
//	(*experiments.World).Start, (*sim.Engine).RunUntil

import (
	"fmt"
	"time"

	"toposense/internal/churn"
	"toposense/internal/experiments"
	"toposense/internal/receiver"
	"toposense/internal/sim"
	"toposense/internal/source"
	"toposense/internal/topology"
)

// scenario is an assembled, started world plus the handles the benchmark
// reads its numbers from.
type scenario struct {
	wl     workload
	seed   int64
	engine *sim.Engine
	build  *topology.Build
	world  *experiments.World
	driver *churn.Driver // nil without churn
	// cur[s][i] is the live receiver incarnation of slot (s, i), nil while
	// the slot is departed; the whole slice is nil without churn.
	cur [][]*receiver.Receiver
	// departed sums the counters of churn incarnations that have left, so
	// receiver.* metrics cover every incarnation and not only the last.
	departed receiverCounts

	generate, assemble, slots, start time.Duration
}

// receiverCounts are the receiver agent's exported counters.
type receiverCounts struct {
	Reports, Suggestions, Unilateral, Duplicates int64
}

func (c *receiverCounts) add(rx *receiver.Receiver) {
	c.Reports += rx.ReportsSent
	c.Suggestions += rx.SuggestionsRecv
	c.Unilateral += rx.UnilateralDrops
	c.Duplicates += rx.Duplicates
}

// assemble builds and starts wl's world for seed. The four set-up steps
// are timed apart and, when rec is not nil, recorded as children of the
// span parent. beforeStart, if not nil, runs on the assembled world just
// before it is started (the traced run attaches its probes there).
func assemble(wl workload, seed int64, rec *spanRec, parent int, beforeStart func(*scenario)) (*scenario, error) {
	cfg := experiments.WorldConfig{
		Seed:      seed,
		Traffic:   wl.Traffic,
		Aggregate: wl.Aggregate,
	}
	sc := &scenario{wl: wl, seed: seed}

	var err error
	sc.generate = rec.timed("topology.generate", parent, func(int) {
		var topoCfg topology.Config
		if _, topoCfg, err = topology.Parse(wl.Topo); err != nil {
			return
		}
		e, ok := experiments.NewRunEngine(seed, 0).(*sim.Engine)
		if !ok {
			err = fmt.Errorf("experiments.NewRunEngine(seed, 0) no longer returns the serial *sim.Engine")
			return
		}
		sc.engine = e
		sc.build, err = topology.Generate(e, topoCfg)
	})
	if err != nil {
		return nil, err
	}
	e := sc.engine
	b := sc.build

	sc.assemble = rec.timed("experiments.assemble", parent, func(int) {
		sc.world = experiments.NewWorld(e, b, cfg)
	})
	w := sc.world

	// Membership churn, wired as cmd/toposim -churn does: every receiver
	// alternates between joined and departed; a departure is the full
	// lifecycle (leave all layer groups, deregister), a rejoin is a fresh
	// incarnation feeding the same trace.
	if wl.Churn > 0 {
		sc.slots = rec.timed("churn.slots", parent, func(int) {
			sc.driver = churn.New(b.Net)
			period := sim.FromSeconds(wl.Churn)
			sc.cur = make([][]*receiver.Receiver, len(w.Receivers))
			for s := range w.Receivers {
				sc.cur[s] = append([]*receiver.Receiver(nil), w.Receivers[s]...)
				for i := range w.Receivers[s] {
					s, i := s, i
					node := b.Receivers[s][i]
					tr := w.Traces[s][i]
					sc.driver.Slot(0, period, period,
						func() {
							rx := receiver.New(b.Net, w.Domain, node, receiver.Config{
								Session: s, MaxLayers: source.DefaultLayers,
								InitialLevel: 1, Controller: b.Controller.ID,
							})
							rx.OnChange = func(c receiver.Change) { tr.Set(c.At, c.To) }
							rx.Start()
							sc.cur[s][i] = rx
						},
						func() {
							if rx := sc.cur[s][i]; rx != nil {
								rx.Depart()
								sc.departed.add(rx)
								sc.cur[s][i] = nil
							}
						})
				}
			}
		})
	}

	if beforeStart != nil {
		beforeStart(sc)
	}
	sc.start = rec.timed("experiments.start", parent, func(int) {
		w.Start()
	})
	return sc, nil
}

// live returns slot (s, i)'s current receiver, nil if the slot is departed.
func (sc *scenario) live(s, i int) *receiver.Receiver {
	if sc.cur != nil {
		return sc.cur[s][i]
	}
	return sc.world.Receivers[s][i]
}
