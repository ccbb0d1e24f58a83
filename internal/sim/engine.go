package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Action is what an event does when it fires. A hot caller makes its own
// state the Action — a pointer type whose Fire method is the callback —
// so scheduling it stores two words in the event and allocates nothing;
// Func adapts a closure.
type Action interface{ Fire() }

// Func adapts a closure to an Action. Converting one allocates nothing
// beyond the closure itself: a func value is one pointer, which an
// interface holds as is.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Event is one slot of the engine's scheduler. Slots are owned and recycled
// by their queue: after an event fires or is cancelled its struct returns to
// a free list and is reused by a later After/At call. User code never
// holds *Event directly — After and At return a Handle, which pairs the
// slot with the generation it was issued for, so operations on a handle
// whose slot has been recycled are safe no-ops. An Event is 64 bytes, one
// cache line: slabs of eventSlab slots start on a line boundary, so no slot
// straddles two.
type Event struct {
	at         Time
	seq        uint64 // tie-breaker: FIFO among events at the same timestamp
	act        Action
	next, prev *Event // ring-bucket list of leaders (next also links the free list); prev is also a member's back-link (see equeue)
	mem        *Event // the next event of my train, nil at its tail and out of the queue
	index      int32  // heap position, 0 in a ring bucket, or idxMember; idxFired or idxCancelled once out of the queue
	gen        uint32 // bumped each time the slot is acquired from the free list
}

// Out-of-queue values of Event.index. The cancelled state lives here rather
// than in a flag of its own so that an Event stays one 64-byte line.
const (
	idxFired     = -1 // popped to fire, or removed on its way to idxCancelled
	idxCancelled = -2 // Cancel was called; holds until the slot is reused
)

// idxMember marks an event queued behind its train's leader rather than in
// a tier. It is positive (and no heap grows that deep) so that a member
// reads as queued wherever index >= 0 asks.
const idxMember = math.MaxInt32

// Handle identifies one scheduled firing. The zero Handle is valid and
// refers to nothing; all its methods are no-ops. Handles are plain values —
// copying one is free and never allocates.
type Handle struct {
	ev  *Event
	gen uint32
}

// IsZero reports whether the handle refers to nothing.
func (h Handle) IsZero() bool { return h.ev == nil }

// live reports whether the handle still addresses the generation it was
// issued for. Once the slot is recycled for a newer event this is false and
// the handle goes inert.
func (h Handle) live() bool { return h.ev != nil && h.ev.gen == h.gen }

// Cancelled reports whether Cancel was called on this handle's event before
// it fired. After the engine recycles the slot for a new event the report
// reverts to false (the old firing is history either way).
func (h Handle) Cancelled() bool { return h.live() && h.ev.index == idxCancelled }

// Active reports whether the event is still queued: scheduled, not yet
// fired, not cancelled.
func (h Handle) Active() bool { return h.live() && h.ev.index >= 0 }

// When returns the simulated time the event is scheduled for. It reads 0
// once the slot has been recycled.
func (h Handle) When() Time {
	if !h.live() {
		return 0
	}
	return h.ev.at
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all model code runs inside event callbacks on the same
// goroutine, which is what makes the simulation deterministic.
//
// The ready queue is an equeue: a calendar-tiered store merged with FIFO
// lanes for posts, which fires in exact (time, sequence) order, with slot
// and chunk free lists, so the steady-state schedule/fire cycle performs no
// allocations. Engine implements Scheduler, Reserver and Runner; it is the
// determinism oracle the ShardedEngine is validated against, and each
// shard runs it: every shard, the global barrier queue and a degenerate
// ShardedEngine's one queue is an Engine.
type Engine struct {
	now     Time
	q       equeue
	rng     *rand.Rand
	stopped bool
	fired   uint64
}

// NewEngine returns an engine whose clock starts at zero and whose random
// stream is seeded with seed. Every stochastic model component must draw from
// Engine.Rand() so a run is fully reproducible from the seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random stream.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.q.len() }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// EventAllocs returns how many Event structs the engine has ever allocated;
// once the model reaches steady state this stops growing because every new
// schedule is served from the free list.
func (e *Engine) EventAllocs() uint64 { return e.q.slotAllocs }

// EventReuses returns how many schedules were served from the free list.
func (e *Engine) EventReuses() uint64 { return e.q.slotReuses }

// Posts returns how many posts rode a lane and how many fell back to the
// calendar because no lane could take them.
func (e *Engine) Posts() (laned, fellBack uint64) { return e.q.laned, e.q.fellBack }

// ShardEngineStats is one shard's slice of a ShardedEngine's meters. The
// single-threaded Engine never emits these; on a plain engine the Shards
// field of EngineStats is absent from JSON output entirely.
type ShardEngineStats struct {
	Shard   int    `json:"shard"`
	Fired   uint64 `json:"events_fired"`
	Pending int    `json:"events_pending"`
	// CrossIn counts events that arrived from other shards through the
	// barrier mailboxes (the payload carried by the null-message protocol).
	CrossIn uint64 `json:"cross_events_in"`
	// Windows is how many lookahead windows the shard executed; each window
	// costs one barrier synchronization per shard, which is this engine's
	// analog of a null message.
	Windows uint64 `json:"windows"`
	// StallNanos is wall-clock time the shard spent finished-and-waiting at
	// barriers for slower shards. Wall-clock: nondeterministic across runs,
	// so it stays out of JSON exports, which two runs of one seed must
	// write byte for byte.
	StallNanos int64 `json:"-"`
}

// EngineStats is a point-in-time snapshot of the scheduler's meters, in
// one struct so observability exports can capture them atomically. The
// sharded-engine fields are tagged omitempty and stay absent for the
// single-threaded Engine, so existing JSON consumers see an unchanged
// document.
type EngineStats struct {
	Now         Time    `json:"-"`
	NowSeconds  float64 `json:"now_seconds"`
	Fired       uint64  `json:"events_fired"`
	Pending     int     `json:"events_pending"`
	EventAllocs uint64  `json:"event_allocs"`
	EventReuses uint64  `json:"event_reuses"`
	// Chained counts schedules that joined a same-instant train behind an
	// event already queued, and so never cost a queue entry of their own.
	Chained uint64 `json:"events_chained"`

	// Sharded-engine extensions (zero / absent on the plain Engine).
	LookaheadSeconds float64            `json:"lookahead_seconds,omitempty"`
	Windows          uint64             `json:"windows,omitempty"`
	CrossEvents      uint64             `json:"cross_events,omitempty"`
	GlobalFired      uint64             `json:"global_events_fired,omitempty"`
	BarrierStall     int64              `json:"-"` // sum of the shards' StallNanos, host wall time
	Shards           []ShardEngineStats `json:"shards,omitempty"`
}

// Stats snapshots the engine's meters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Now:         e.now,
		NowSeconds:  e.now.Seconds(),
		Fired:       e.fired,
		Pending:     e.q.len(),
		EventAllocs: e.q.slotAllocs,
		EventReuses: e.q.slotReuses,
		Chained:     e.q.chained,
	}
}

// After fires a after delay. A negative delay panics: models must never
// schedule into the past.
func (e *Engine) After(delay Time, a Action) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: After with negative delay %v at %v", delay, e.now))
	}
	return e.At(e.now+delay, a)
}

// Schedule runs the closure fn after delay: After(delay, Func(fn)), for
// callers holding a concrete Engine (the repository benchmark's hold
// model, tests).
func (e *Engine) Schedule(delay Time, fn func()) Handle {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	return e.After(delay, Func(fn))
}

// At fires a at absolute time t (>= Now).
func (e *Engine) At(t Time, a Action) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%v) is in the past (now %v)", t, e.now))
	}
	if a == nil {
		panic("sim: At with nil Action")
	}
	return e.q.schedule(t, a)
}

// Post fires a after delay, like After, but returns no handle: a post is
// never cancelled. It takes the next sequence number, like After, and waits
// in one of the queue's FIFO lanes instead of an event slot; it fires where
// its own event would have, and Fired, Pending and Passed count it as one.
func (e *Engine) Post(delay Time, a Action) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Post with negative delay %v at %v", delay, e.now))
	}
	if a == nil {
		panic("sim: Post with nil Action")
	}
	e.q.post(e.now+delay, a)
}

// Reserve takes n consecutive sequence numbers now, for events AtReserved
// queues later, and returns the first of them.
func (e *Engine) Reserve(n int) uint64 { return e.q.reserve(n) }

// AtReserved queues a at t under seq, a number Reserve handed out: the
// event fires exactly where one scheduled at t when seq was reserved would
// have. It panics unless (t, seq) is still ahead (see Passed).
func (e *Engine) AtReserved(t Time, seq uint64, a Action) Handle { return e.q.backdate(t, seq, a) }

// Passed reports whether an event keyed (t, seq) would already have fired:
// it sorts before the event now firing, or, between runs, at or before the
// last instant RunUntil completed.
func (e *Engine) Passed(t Time, seq uint64) bool { return e.q.passed(t, seq) }

// Cancel removes the event from the queue if it has not fired yet. It is
// safe to cancel a zero handle, a handle whose event already fired or was
// already cancelled, and — because handles carry the slot generation — a
// stale handle whose event slot has since been recycled for a newer event:
// all of those are no-ops.
func (e *Engine) Cancel(h Handle) { e.q.cancel(h) }

// Stop makes Run/RunUntil return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// step fires the earliest event if it is due by deadline, and reports
// whether it fired one. An event's slot is released before its Action
// fires, so an Action that schedules new work reuses it at once. A popped
// post first touches the next one's Action (equeue.warmNext), so the two
// deliveries' cache misses overlap instead of queueing one behind the
// other.
func (e *Engine) step(deadline Time) bool {
	at, inLane, ok := e.q.first()
	if !ok || at > deadline {
		return false
	}
	e.now = at
	var a Action
	if inLane {
		a = e.q.popLane()
		e.q.warmNext()
	} else {
		ev := e.q.near[0]
		a = ev.act
		e.q.pop(ev)
	}
	e.fired++
	a.Fire()
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step(noEvent) {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to deadline. Events scheduled beyond the deadline remain queued. After a
// Stop the clock stays at the stopping event's time, since events before the
// deadline may still be queued.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && e.step(deadline) {
	}
	if e.stopped {
		return
	}
	e.q.complete(deadline)
	if e.now < deadline {
		e.now = deadline
	}
}

// Every schedules fn to run every period on s, starting after the first
// period, until the returned Ticker is stopped or the scheduler drains.
// Period must be positive. The ticker lives entirely on s, so on a
// ShardedEngine it repeats inside whichever shard (or the global barrier
// queue) s addresses.
func Every(s Scheduler, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	t := &Ticker{sched: s, period: period, fn: fn}
	t.arm()
	return t
}

// Ticker repeats a callback at a fixed period on one Scheduler. Its own
// event's Action is the ticker (tick), so re-arming allocates nothing.
type Ticker struct {
	sched   Scheduler
	period  Time
	fn      func()
	ev      Handle
	stopped bool
}

func (t *Ticker) arm() {
	t.ev = t.sched.After(t.period, (*tick)(t))
}

// tick is a Ticker's firing.
type tick Ticker

func (k *tick) Fire() {
	t := (*Ticker)(k)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// Stop cancels future firings. The callback never runs again after Stop.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.sched.Cancel(t.ev)
}
