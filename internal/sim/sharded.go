package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const noEvent = Time(math.MaxInt64)

// ShardedEngine is a conservative parallel discrete-event engine in the
// Chandy–Misra tradition. The model is partitioned into shards separated by
// links whose propagation delay is at least the lookahead L; each shard owns
// an independent event queue and executes one lookahead window
// [T, min(T+L, next global event)) at a time on a pool of worker goroutines.
// Events a shard schedules into another shard (packet handoffs across
// partition-boundary links, multicast graft/prune continuations traveling
// upstream) are conservative by construction — they land at least L in the
// future — so they are accumulated in per-source mailboxes during the window
// and merged into the destination queues at the barrier, sorted by
// (time, source shard, source order). Because the merge order, the per-shard
// execution order, and the window boundaries depend only on the model and
// the partitioning — never on goroutine timing — a run is deterministic for
// a given seed and partitioning, independent of the worker count.
//
// A separate global queue holds stop-the-world work (the controller pass,
// topology-discovery sweeps, watchdogs): its events define barrier points,
// truncating the current window, and run with every shard quiescent so they
// may read and mutate cross-shard state freely. Components reach it through
// GlobalOf.
//
// Every shard and the global queue is an Engine: clock, queue, scheduling
// and stepping are the oracle's own code. With a single partition the
// engine is one Engine, whose Run, RunUntil, Stop and Stats it forwards to,
// so seeds reproduce byte-identically against the plain Engine.
//
// The run-wide random stream (Rand) is shared, not per-shard: it may only be
// drawn from shard 0, the global context, or while the engine is idle. The
// topology partitioners keep every stochastic component (sources, the
// controller) in partition 0 to honor this.
type ShardedEngine struct {
	workers   int
	shards    []*shardSched
	gq        *barrierQueue // global barrier queue (nil while degenerate); its clock is the committed global time
	lookahead Time

	stopped atomic.Bool
	running atomic.Bool // workers active: guards misuse of the global queue

	windows    uint64
	crossTotal uint64
	mergeBuf   crossEvents
}

// NewShardedEngine returns an engine seeded like NewEngine(seed) that will
// run shard windows on up to workers goroutines. Until SetPartitions is
// called (or when it is called with a single partition) the engine is
// degenerate: one queue with plain Engine semantics.
func NewShardedEngine(seed int64, workers int) *ShardedEngine {
	se := &ShardedEngine{workers: max(workers, 1)}
	se.shards = []*shardSched{{Engine: Engine{rng: rand.New(rand.NewSource(seed))}}}
	return se
}

// SetPartitions shapes the engine into p shards with the given lookahead
// (the minimum propagation delay of any partition-boundary link). It must be
// called before the run starts. p <= 1 leaves the engine degenerate. Events
// already queued stay on shard 0.
func (se *ShardedEngine) SetPartitions(p int, lookahead Time) {
	if se.running.Load() {
		panic("sim: SetPartitions while running")
	}
	if p <= 1 {
		return
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: SetPartitions(%d) requires a positive lookahead, got %v", p, lookahead))
	}
	if se.gq != nil {
		panic("sim: SetPartitions called twice")
	}
	se.lookahead = lookahead
	rng := se.Rand()
	for len(se.shards) < p {
		se.shards = append(se.shards, &shardSched{Engine: Engine{rng: rng}, idx: len(se.shards)})
	}
	for _, s := range se.shards {
		s.out = make([]crossEvents, p)
	}
	se.gq = &barrierQueue{Engine: Engine{rng: rng}, running: &se.running}
}

// degenerate reports whether the engine runs as a single plain queue.
func (se *ShardedEngine) degenerate() bool { return se.gq == nil }

// Shard returns partition i's scheduler. Events scheduled on it run in that
// shard's context; it must only be invoked from that shard's own events,
// from the global context, or while the engine is idle.
func (se *ShardedEngine) Shard(i int) Scheduler { return se.shards[i] }

// Global returns the stop-the-world scheduler (see GlobalOf). While
// degenerate it is the single queue itself.
func (se *ShardedEngine) Global() Scheduler { return se.global() }

func (se *ShardedEngine) global() Reserver {
	if se.gq == nil {
		return se.shards[0]
	}
	return se.gq
}

// Cross returns the scheduler that shard src uses to schedule events into
// shard dst. Its schedules must respect the lookahead (land at least L after
// the source shard's clock) and are not cancellable (they return the zero
// Handle). The returned value is cached per source shard and must only be
// used from src's own execution context.
func (se *ShardedEngine) Cross(src, dst int) Scheduler {
	s := se.shards[src]
	if src == dst {
		return s
	}
	if s.cross == nil {
		s.cross = make([]Scheduler, len(se.shards))
	}
	c := s.cross[dst]
	if c == nil {
		c = &crossSched{src: s, dst: dst, lookahead: se.lookahead}
		s.cross[dst] = c
	}
	return c
}

// Now returns the clock of the current sequential context: the committed
// global time between windows, or the event time while degenerate. Code
// running inside a shard must use its own shard scheduler's clock instead.
func (se *ShardedEngine) Now() Time { return se.global().Now() }

// Rand returns the engine's deterministic random stream (see the type
// comment for the sharded-draw contract).
func (se *ShardedEngine) Rand() *rand.Rand { return se.shards[0].Rand() }

// After queues a on the global (stop-the-world) context after delay.
func (se *ShardedEngine) After(delay Time, a Action) Handle { return se.global().After(delay, a) }

// At queues a on the global (stop-the-world) context at absolute time t.
func (se *ShardedEngine) At(t Time, a Action) Handle { return se.global().At(t, a) }

// Post queues a on the global context after delay: while degenerate into
// the one Engine's lanes (Engine.Post); else into the barrier queue, as
// After.
func (se *ShardedEngine) Post(delay Time, a Action) { se.global().Post(delay, a) }

// Cancel cancels a handle issued by the global context.
func (se *ShardedEngine) Cancel(h Handle) { se.global().Cancel(h) }

// Reserve takes sequence numbers on the global context (see Reserver).
func (se *ShardedEngine) Reserve(n int) uint64 { return se.global().Reserve(n) }

// AtReserved queues a back-dated event on the global context.
func (se *ShardedEngine) AtReserved(t Time, seq uint64, a Action) Handle {
	return se.global().AtReserved(t, seq, a)
}

// Passed reports whether (t, seq) has gone by on the global context.
func (se *ShardedEngine) Passed(t Time, seq uint64) bool { return se.global().Passed(t, seq) }

// Stop makes Run/RunUntil return at the next barrier, or, while
// degenerate, after the current event (Engine.Stop).
func (se *ShardedEngine) Stop() {
	if se.degenerate() {
		se.shards[0].Stop()
		return
	}
	se.stopped.Store(true)
}

// Fired returns the total events executed across all shards and the global
// queue.
func (se *ShardedEngine) Fired() uint64 {
	var n uint64
	for _, s := range se.shards {
		n += s.fired
	}
	if se.gq != nil {
		n += se.gq.fired
	}
	return n
}

// Posts returns how many posts rode a lane and how many fell back to the
// calendar, summed over the shards.
func (se *ShardedEngine) Posts() (laned, fellBack uint64) {
	for _, s := range se.shards {
		laned += s.q.laned
		fellBack += s.q.fellBack
	}
	return laned, fellBack
}

// Pending returns the total queued events across all shards, the global
// queue, and undrained cross-shard mailboxes.
func (se *ShardedEngine) Pending() int {
	n := 0
	for _, s := range se.shards {
		n += s.q.len()
		for _, mb := range s.out {
			n += len(mb)
		}
	}
	if se.gq != nil {
		n += se.gq.q.len()
	}
	return n
}

// Stats snapshots the engine's meters. A degenerate engine reports its one
// Engine's; a partitioned one adds the per-shard breakdown and barrier
// accounting.
func (se *ShardedEngine) Stats() EngineStats {
	if se.degenerate() {
		return se.shards[0].Stats()
	}
	st := EngineStats{
		Now:              se.gq.now,
		NowSeconds:       se.gq.now.Seconds(),
		Fired:            se.Fired(),
		Pending:          se.Pending(),
		LookaheadSeconds: se.lookahead.Seconds(),
		Windows:          se.windows,
		CrossEvents:      se.crossTotal,
		GlobalFired:      se.gq.fired,
		Shards:           make([]ShardEngineStats, len(se.shards)),
	}
	for i, s := range se.shards {
		st.EventAllocs += s.q.slotAllocs
		st.EventReuses += s.q.slotReuses
		st.Chained += s.q.chained
		st.BarrierStall += s.stall
		st.Shards[i] = ShardEngineStats{
			Shard:      i,
			Fired:      s.fired,
			Pending:    s.q.len(),
			CrossIn:    s.crossIn,
			Windows:    s.windows,
			StallNanos: s.stall,
		}
	}
	st.EventAllocs += se.gq.q.slotAllocs
	st.EventReuses += se.gq.q.slotReuses
	st.Chained += se.gq.q.chained
	return st
}

// Run executes events until every queue and mailbox is empty or Stop is
// called.
func (se *ShardedEngine) Run() {
	if se.degenerate() {
		se.shards[0].Run()
		return
	}
	se.stopped.Store(false)
	se.runWindows(noEvent, true)
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to deadline. Events scheduled beyond the deadline remain queued.
func (se *ShardedEngine) RunUntil(deadline Time) {
	if se.degenerate() {
		se.shards[0].RunUntil(deadline)
		return
	}
	se.stopped.Store(false)
	se.runWindows(deadline, false)
	if se.stopped.Load() {
		return
	}
	// Deadline edge: windows run strictly below their bound, so events at
	// exactly the deadline are still queued. Mirror the plain engine's
	// inclusive deadline — globals first (they were scheduled further in
	// advance, hence carry earlier sequence numbers in the oracle ordering),
	// then the shards.
	se.runGlobal(deadline)
	se.runShardsWindow(deadline, true)
	se.drainMailboxes()
}

// earliest returns the earliest queued timestamp across shards and the
// global queue (mailboxes are empty between windows), or noEvent.
func (se *ShardedEngine) earliest() Time {
	t := noEvent
	for _, s := range se.shards {
		if at, _, ok := s.q.first(); ok && at < t {
			t = at
		}
	}
	if at, _, ok := se.gq.q.first(); ok && at < t {
		t = at
	}
	return t
}

// syncClocks commits t as every context's current time.
func (se *ShardedEngine) syncClocks(t Time) {
	se.gq.now = t
	for _, s := range se.shards {
		s.now = t
	}
}

// runWindows is the conservative window/barrier loop: pick the window end
// (lookahead, horizon, or next global event, whichever is nearest), execute
// each shard's slice of the window in parallel, merge the cross-shard
// mailboxes deterministically, then run any global events at the barrier.
func (se *ShardedEngine) runWindows(deadline Time, untilEmpty bool) {
	for !se.stopped.Load() {
		next := se.earliest()
		if next == noEvent {
			if !untilEmpty {
				se.syncClocks(deadline)
			}
			return
		}
		if next > deadline {
			se.syncClocks(deadline)
			return
		}
		now := se.gq.now
		if next > now {
			// Idle gap: jump straight to the next event. Mailboxes are
			// drained, so nothing can land in between.
			now = next
			se.syncClocks(now)
		}
		tStop := now + se.lookahead
		if tStop < now || tStop > deadline { // overflow or horizon clamp
			tStop = deadline
		}
		if at, _, ok := se.gq.q.first(); ok && at < tStop {
			tStop = at
		}
		se.windows++
		se.runShardsWindow(tStop, false)
		se.drainMailboxes()
		se.syncClocks(tStop)
		se.runGlobal(tStop)
		if tStop == deadline && !untilEmpty {
			return
		}
	}
}

// runGlobal fires global events with timestamps <= bound, world stopped.
// It steps the queue itself rather than calling RunUntil: the barrier
// marks no instant complete, and Stop is the engine's flag.
func (se *ShardedEngine) runGlobal(bound Time) {
	g := se.gq
	for !se.stopped.Load() && g.step(bound) {
	}
}

// runShardsWindow executes every shard's events below (or, when incl, up
// to) tStop, spreading shards across the worker pool. Shard i always runs
// on worker i%W, alone on its goroutine, so execution inside a shard is
// strictly sequential and ordered by its own queue. The global queue refuses
// schedules for the whole window at any worker count, so a misuse panics at
// one worker just as it does at many.
func (se *ShardedEngine) runShardsWindow(tStop Time, incl bool) {
	w := se.workers
	if w > len(se.shards) {
		w = len(se.shards)
	}
	se.running.Store(true)
	defer se.running.Store(false)
	if w <= 1 {
		for _, s := range se.shards {
			s.runWindow(tStop, incl)
		}
		return
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := i; j < len(se.shards); j += w {
				s := se.shards[j]
				s.runWindow(tStop, incl)
				s.finish = time.Since(start).Nanoseconds()
			}
		}(i)
	}
	wg.Wait()
	end := time.Since(start).Nanoseconds()
	for _, s := range se.shards {
		s.stall += end - s.finish
	}
}

// drainMailboxes merges the windows' cross-shard events into their
// destination queues in (time, source shard, source order) — an order that
// depends only on the model, never on worker timing.
func (se *ShardedEngine) drainMailboxes() {
	for dst, d := range se.shards {
		buf := se.mergeBuf[:0]
		for _, src := range se.shards {
			if mb := src.out[dst]; len(mb) > 0 {
				buf = append(buf, mb...)
				for k := range mb {
					mb[k].act = nil
				}
				src.out[dst] = mb[:0]
			}
		}
		se.mergeBuf = buf[:0]
		if len(buf) == 0 {
			continue
		}
		sort.Sort(buf)
		for i := range buf {
			d.q.schedule(buf[i].at, buf[i].act)
			buf[i].act = nil
		}
		d.crossIn += uint64(len(buf))
		se.crossTotal += uint64(len(buf))
	}
}

// shardSched is one shard's execution context: an Engine drawing the
// run-wide random stream, whose clock may lead the committed global time by
// up to the lookahead, plus what a shard adds — mailboxes for the events it
// schedules into other shards, their order, its cached cross schedulers,
// and its window and stall meters.
type shardSched struct {
	Engine
	idx int

	out    []crossEvents // per-destination mailboxes for the current window
	outSeq uint64
	cross  []Scheduler // cached crossScheds, lazily built by the owner

	crossIn uint64
	windows uint64
	finish  int64 // scratch: nanos into the window when this shard finished
	stall   int64
}

// runWindow executes this shard's events below (or up to, when incl) tStop
// — times are integer, so below tStop is up to tStop-1 — then parks the
// clock at tStop. Passed thus counts the window's bound as gone by only
// when the window included it.
func (s *shardSched) runWindow(tStop Time, incl bool) {
	if incl {
		s.RunUntil(tStop)
	} else {
		s.RunUntil(tStop - 1)
	}
	s.now = tStop
	s.windows++
}

// barrierQueue is the global queue of a partitioned engine: an Engine that
// refuses schedules while shard windows run, since its events must only
// ever run with every shard parked. After, At, Post and AtReserved each
// check, because the promoted After would reach Engine.At past an At
// override. A post here is an ordinary event: no link delivers on the
// global queue.
type barrierQueue struct {
	Engine
	running *atomic.Bool
}

func (g *barrierQueue) guard() {
	if g.running.Load() {
		panic("sim: global schedule from inside a shard window; use the shard or cross-shard scheduler")
	}
}

func (g *barrierQueue) After(delay Time, a Action) Handle {
	g.guard()
	return g.Engine.After(delay, a)
}

func (g *barrierQueue) At(t Time, a Action) Handle {
	g.guard()
	return g.Engine.At(t, a)
}

func (g *barrierQueue) Post(delay Time, a Action) {
	g.guard()
	g.Engine.After(delay, a)
}

func (g *barrierQueue) AtReserved(t Time, seq uint64, a Action) Handle {
	g.guard()
	return g.Engine.AtReserved(t, seq, a)
}

// crossEvent is a schedule bound for another shard, parked in the source
// shard's mailbox until the barrier.
type crossEvent struct {
	at  Time
	seq uint64 // source-shard schedule order
	src int32
	act Action
}

type crossEvents []crossEvent

func (c crossEvents) Len() int      { return len(c) }
func (c crossEvents) Swap(i, j int) { c[i], c[j] = c[j], c[i] }
func (c crossEvents) Less(i, j int) bool {
	if c[i].at != c[j].at {
		return c[i].at < c[j].at
	}
	if c[i].src != c[j].src {
		return c[i].src < c[j].src
	}
	return c[i].seq < c[j].seq
}

// crossSched carries schedules from one shard into another. Schedules must
// land at least the lookahead past the source clock (conservative
// synchronization depends on it) and are not cancellable: the returned
// Handle is zero.
type crossSched struct {
	src       *shardSched
	dst       int
	lookahead Time
}

func (c *crossSched) Now() Time { return c.src.now }

func (c *crossSched) Rand() *rand.Rand { return c.src.Rand() }

func (c *crossSched) After(delay Time, a Action) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: After with negative delay %v at %v", delay, c.src.now))
	}
	return c.At(c.src.now+delay, a)
}

func (c *crossSched) At(t Time, a Action) Handle {
	s := c.src
	if t-s.now < c.lookahead {
		panic(fmt.Sprintf("sim: cross-shard At(%v) violates lookahead %v (now %v)",
			t, c.lookahead, s.now))
	}
	if a == nil {
		panic("sim: At with nil Action")
	}
	s.out[c.dst] = append(s.out[c.dst], crossEvent{at: t, seq: s.outSeq, src: int32(s.idx), act: a})
	s.outSeq++
	return Handle{}
}

// Post is After: a mailbox entry is scheduled at the barrier, not laned.
func (c *crossSched) Post(delay Time, a Action) { c.After(delay, a) }

func (c *crossSched) Cancel(h Handle) {
	if !h.IsZero() {
		panic("sim: Cancel of a foreign handle on a cross-shard scheduler")
	}
}
