package sim

import "math/rand"

// Scheduler is the narrow scheduling surface model components program
// against: read the clock, schedule and cancel Actions, draw deterministic
// randomness. Both the single-threaded Engine and every execution context of
// the ShardedEngine (per-shard schedulers, cross-shard channels, the global
// barrier queue) implement it, so a component wired to a Scheduler runs
// unchanged under either engine.
//
// Contract notes:
//
//   - Now/After/At are relative to the calling context: inside a sharded
//     run, a shard scheduler's clock is that shard's local clock, which may
//     lead the committed global time by up to the lookahead.
//   - Rand returns the one run-wide deterministic stream. Under a sharded
//     run it may only be drawn from shard 0, the global barrier context, or
//     while the engine is idle (setup time); drawing it from another shard's
//     event would race and break reproducibility.
//   - Cancel must be called on the same Scheduler that issued the Handle.
//     Cross-shard schedules return the zero Handle and are not cancellable.
type Scheduler interface {
	Now() Time
	After(delay Time, a Action) Handle
	At(t Time, a Action) Handle
	Cancel(h Handle)
	Rand() *rand.Rand
}

// Reserver is a Scheduler whose events can be numbered before they are
// queued. A producer that may never need a run of events (a source whose
// packets nobody downstream would receive) takes their sequence numbers
// with Reserve at the instant it would have scheduled them, and queues
// only the ones it turns out to need with AtReserved; each fires exactly
// where it would have, so the (time, sequence) order of every event that
// does fire is the one scheduling them all would have produced. Passed
// says which reserved keys have gone by. The Engine, its shard schedulers
// and the ShardedEngine's own context implement it; cross-shard channels
// do not.
type Reserver interface {
	Scheduler
	Reserve(n int) uint64
	AtReserved(t Time, seq uint64, a Action) Handle
	Passed(t Time, seq uint64) bool
}

// Runner is a Scheduler that owns a run loop: the top-level engine handle
// held by harness code (experiments.World, Meter, cmds). Engine and
// ShardedEngine both implement it.
type Runner interface {
	Scheduler
	Run()
	RunUntil(deadline Time)
	Stop()
	Fired() uint64
	Pending() int
	Stats() EngineStats
}

var (
	_ Runner = (*Engine)(nil)
	_ Runner = (*ShardedEngine)(nil)

	_ Reserver = (*Engine)(nil)
	_ Reserver = (*ShardedEngine)(nil)
)

// globalProvider is implemented by engines that distinguish a barrier-
// synchronized global context from per-shard contexts.
type globalProvider interface {
	Global() Scheduler
}

// GlobalOf returns the scheduler for s's stop-the-world context: events
// scheduled on it run at barrier points with every shard quiescent, so their
// callbacks may safely read and mutate state across the whole model (the
// controller pass, topology discovery sweeps, watchdogs). For schedulers
// without shards — the plain Engine — every event already runs with the
// world stopped, and GlobalOf returns s itself.
func GlobalOf(s Scheduler) Scheduler {
	if g, ok := s.(globalProvider); ok {
		return g.Global()
	}
	return s
}
