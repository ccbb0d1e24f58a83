package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// Differential testing of the tiered event queue: a byte script is decoded
// into After/At/Cancel/RunUntil operations and executed three times: on the
// real Engine, on a degenerate (single-partition) ShardedEngine, which must
// be that Engine, and on a reference model that keeps one slice sorted by
// (time, sequence). Fired events themselves schedule children and cancel
// other events, so the tiers are exercised from inside callbacks too. Burst
// operations put many events on one instant, so the same scripts drive the
// queue's trains: append, eviction, cancel of leader/member/tail, Stop
// inside a train, trains migrating between tiers, and several trains sharing
// one bucket while one of them loses its leader or its first member. Two
// more operations reserve sequence numbers and queue an event under one of
// them later (a back-dated insert), which the model files by its number.
// Bit 4 of an operation's first byte turns its schedules into posts
// (Engine.Post), which ride the queue's FIFO lanes; the model numbers a
// post like any schedule, cancels of it are no-ops, and it mirrors the
// first-fit rule to count which posts a lane takes, which fall back to the
// calendar and which schedules chain. Bit 5 turns a burst into interleaved
// monotone post streams, more than there are lanes, and a run into one
// whose deadline is a recent event's instant or the one before it.

// scriptSys is the surface a queue script drives.
type scriptSys interface {
	now() Time
	schedule(id int, delay Time, abs, post bool)
	cancel(id int)
	runUntil(t Time)
	run()
	stop()
	reserve(n int)
	insert(id int, at Time, seq uint64)
	state() string // clock, Fired and Pending
}

// scriptRun is one execution of a script against one system. Event ids are
// handed out in scheduling order, so two runs agree on ids exactly as long
// as they agree on firing order.
type scriptRun struct {
	sys    scriptSys
	fired  []int
	nextID int
	when   []Time       // by id: the instant it was scheduled for
	stops  map[int]bool // ids that call Stop when they fire
	posts  []bool       // by id: scheduled with Post
	firing int          // the id whose callback runs

	// The queue's numbering, mirrored: the next sequence number, each id's,
	// the reserved numbers not used yet, and the key every fired event
	// sorts before (see equeue.passed).
	seq      uint64
	seqOf    []uint64
	reserved []uint64
	doneAt   Time
	doneSeq  uint64
	stopped  bool // a callback called Stop during the current run

	// mid is what each Stop left behind (see op 12), checked against the
	// model's with the rest after the operation.
	mid []string
}

const maxScriptEvents = 4096 // bounds callback-spawned chains

func (r *scriptRun) spawn(delay Time, abs, post bool) {
	id := r.nextID
	r.nextID++
	r.when = append(r.when, r.sys.now()+delay)
	r.seqOf = append(r.seqOf, r.seq)
	r.posts = append(r.posts, post)
	r.seq++
	r.sys.schedule(id, delay, abs, post)
}

// reserve takes n sequence numbers for later inserts.
func (r *scriptRun) reserve(n int) {
	for i := 0; i < n; i++ {
		r.reserved = append(r.reserved, r.seq+uint64(i))
	}
	r.seq += uint64(n)
	r.sys.reserve(n)
}

// passed mirrors equeue.passed.
func (r *scriptRun) passed(at Time, seq uint64) bool {
	return at < r.doneAt || at == r.doneAt && seq < r.doneSeq
}

// runUntil runs to t; a run no callback stopped has fired everything up to t.
func (r *scriptRun) runUntil(t Time) {
	r.stopped = false
	r.sys.runUntil(t)
	if !r.stopped && t >= r.doneAt {
		r.doneAt, r.doneSeq = t, math.MaxUint64
	}
}

// recent picks one of the last few events scheduled: the tail of the newest
// train, one of its members, or (after a short burst) its leader.
func (r *scriptRun) recent(m uint16) int { return r.nextID - 1 - int(m)%min(r.nextID, 6) }

// onFire is every event's callback: log the firing, then, as a pure
// function of the id, maybe schedule a child and maybe cancel some event.
func (r *scriptRun) onFire(id int) {
	r.fired = append(r.fired, id)
	r.firing = id
	r.doneAt, r.doneSeq = r.when[id], r.seqOf[id]+1
	if r.stops[id] {
		delete(r.stops, id)
		r.stopped = true
		r.sys.stop()
	}
	h := uint64(id+1) * 0x9E3779B97F4A7C15
	if h%4 == 0 && r.nextID < maxScriptEvents {
		r.spawn(scriptDelay(byte(h>>8), uint16(h>>16)), h&64 != 0, h&128 != 0)
	}
	if h%5 == 0 {
		r.sys.cancel(int(h>>32) % r.nextID)
	}
}

// scriptDelay maps two script values to a delay in one of the classes that
// land in different tiers: zero, inside a bucket, a few buckets out, around
// the ring horizon, and beyond it.
func scriptDelay(class byte, m uint16) Time {
	switch class % 5 {
	case 0:
		return 0
	case 1:
		return 1 + Time(m)%(1<<bucketShift-1)
	case 2:
		return (1+Time(m)%40)<<bucketShift + Time(m>>6)
	case 3:
		return (ringSize-2+Time(m)%4)<<bucketShift + Time(m>>6)
	default:
		return (ringSize+1+Time(m))<<bucketShift + Time(m&1023)
	}
}

// step decodes and applies one 4-byte operation.
func (r *scriptRun) step(op []byte) {
	class, m := op[1], uint16(op[2])|uint16(op[3])<<8
	post, alt := op[0]&0x10 != 0, op[0]&0x20 != 0
	switch op[0] % 16 {
	case 8, 9:
		if alt {
			r.streams(class, m)
			return
		}
		// A burst on one instant, interleaved with a second instant so both
		// remembered tails are appended to, and now and then a third so one
		// of them is evicted mid-train. As posts (a link fan-out) the burst
		// first runs unbroken for (m&7)*2 posts, consecutive in one lane,
		// and from then on meets the interruptions below too, which put
		// keys between the lane's entries: a post or a schedule for another
		// instant, an ordinary schedule for the same one (cancelled now and
		// then), or a reserved number.
		d := scriptDelay(class, m)
		for i, n := 0, 2+int(m>>4)%63; i < n && r.nextID < maxScriptEvents-3; i++ {
			r.spawn(d, false, post)
			if post && i < int(m&7)*2 {
				continue
			}
			if i%3 == 2 {
				r.spawn(scriptDelay(class+1, m), i%2 == 0, post && i%4 != 0)
			}
			if i%7 == 6 {
				r.spawn(d+1, false, post)
			}
			if post && i%5 == 4 {
				if m&8 != 0 {
					r.spawn(d, true, false)
					if i%10 == 9 {
						r.sys.cancel(r.nextID - 1)
					}
				} else {
					r.reserve(1)
				}
			}
		}
	case 10:
		if r.nextID > 0 {
			r.sys.cancel(r.recent(m))
		}
	case 11:
		// Cancel, then append to the instant the cancelled event had.
		if r.nextID > 0 {
			id := r.recent(m)
			r.sys.cancel(id)
			if at := r.when[id]; at >= r.sys.now() {
				r.spawn(at-r.sys.now(), true, post)
			}
		}
	case 12:
		// Stop from inside a recent event's callback (a post with more of
		// its lane behind it, say), run up to it, note what is left, then
		// finish its instant.
		if r.nextID > 0 {
			id := r.recent(m)
			if at := r.when[id]; at >= r.sys.now() {
				r.stops[id] = true
				r.runUntil(at)
				r.mid = append(r.mid, r.sys.state())
				r.runUntil(at)
			}
		}
	case 13:
		// Up to four trains on consecutive instants of one bucket — the
		// current one, a ring bucket or one beyond the horizon — then one of
		// them (first, middle, last, or alone) loses its leader, its first
		// member, or both, and its instant is appended to: behind the tail
		// just promoted to leader when the train was two long and one of the
		// newest two.
		trains, width := 1+int(m)%4, 2+int(m>>2)%3
		if r.nextID+trains*width+1 >= maxScriptEvents {
			return
		}
		d := Time(0)
		if class%5 != 0 {
			d = (scriptDelay(class, m)+r.sys.now()+1<<bucketShift-1)&^(1<<bucketShift-1) - r.sys.now()
		}
		base := r.nextID
		for i := 0; i < trains*width; i++ {
			r.spawn(d+Time(i/width), i%2 == 0, post)
		}
		j := int(m>>4) % trains
		if what := m >> 6 % 3; what != 1 {
			r.sys.cancel(base + j*width) // the leader
			if what == 2 {
				r.sys.cancel(base + j*width + 1) // the member promoted in its place
			}
		} else {
			r.sys.cancel(base + j*width + 1) // the first member: its prev is the leader
		}
		r.spawn(d+Time(j), true, post)
	case 14:
		// Reserve a few sequence numbers for later inserts.
		r.reserve(1 + int(m)%4)
	case 15:
		// Queue an event under a reserved number: at a recent event's
		// instant (beside a train, between its leader and its first member
		// when the number was reserved in between) or at a delay from now.
		// A key that has gone by is skipped.
		if len(r.reserved) == 0 {
			return
		}
		k := int(m>>8) % len(r.reserved)
		seq := r.reserved[k]
		at := r.sys.now() + scriptDelay(class>>1, m)
		if class&1 == 0 {
			if r.nextID == 0 {
				return
			}
			at = r.when[r.recent(m)]
		}
		if r.passed(at, seq) || r.nextID >= maxScriptEvents {
			return
		}
		r.reserved = append(r.reserved[:k], r.reserved[k+1:]...)
		id := r.nextID
		r.nextID++
		r.when = append(r.when, at)
		r.seqOf = append(r.seqOf, seq)
		r.posts = append(r.posts, false)
		r.sys.insert(id, at, seq)
	case 0, 1, 2:
		r.spawn(scriptDelay(class, m), false, post)
	case 3:
		r.spawn(scriptDelay(class, m), true, post)
	case 4, 5:
		if r.nextID > 0 {
			r.sys.cancel(int(m) % r.nextID)
		}
	default:
		if alt && r.nextID > 0 {
			// A deadline on a recent event's instant or just before it:
			// between the entries of a lane, when that event is a post.
			if at := r.when[r.recent(m)] - Time(class&1); at >= r.sys.now() {
				r.runUntil(at)
			}
			return
		}
		r.runUntil(r.sys.now() + scriptDelay(class, m))
	}
}

// streams posts interleaved monotone streams, more than there are lanes: a
// few rounds of one post per stream at decreasing instants, so first fit
// gives each stream the next lane and the streams past the last lane fall
// back to the calendar, and each round lands after every lane's newest
// entry and takes the lanes again in order.
func (r *scriptRun) streams(class byte, m uint16) {
	n, rounds := laneCap+1+int(m)%laneCap, 2+int(m>>5)%3
	d := scriptDelay(class, m)
	for k := 0; k < rounds; k++ {
		for j := 0; j < n && r.nextID < maxScriptEvents; j++ {
			r.spawn(d+Time((k+1)*n-j), false, true)
		}
	}
}

// engineSys runs a script on a real engine: the Engine, or a degenerate
// ShardedEngine. q is the engine's queue.
type engineSys struct {
	e interface {
		Runner
		Reserver
	}
	q       *equeue
	r       *scriptRun
	handles []Handle
}

func (s *engineSys) now() Time { return s.e.Now() }
func (s *engineSys) schedule(id int, delay Time, abs, post bool) {
	fn := Func(func() { s.r.onFire(id) })
	if post {
		s.e.Post(delay, fn)
		s.handles = append(s.handles, Handle{})
	} else if abs {
		s.handles = append(s.handles, s.e.At(s.e.Now()+delay, fn))
	} else {
		s.handles = append(s.handles, s.e.After(delay, fn))
	}
}
func (s *engineSys) insert(id int, at Time, seq uint64) {
	s.handles = append(s.handles, s.e.AtReserved(at, seq, Func(func() { s.r.onFire(id) })))
}
func (s *engineSys) reserve(n int)   { s.e.Reserve(n) }
func (s *engineSys) cancel(id int)   { s.e.Cancel(s.handles[id]) }
func (s *engineSys) runUntil(t Time) { s.e.RunUntil(t) }
func (s *engineSys) run()            { s.e.Run() }
func (s *engineSys) stop()           { s.e.Stop() }
func (s *engineSys) state() string {
	return fmt.Sprintf("now %v fired %d pending %d", s.e.Now(), s.e.Fired(), s.e.Pending())
}

// modelSys is the reference: pending events in one slice sorted by
// (at, seq), numbered the way the queue numbers them.
type modelEvent struct {
	at  Time
	seq uint64
	id  int
}

const (
	modelPending = iota
	modelFired
	modelCancelled
)

type modelSys struct {
	r             *scriptRun
	clock         Time
	seq           uint64
	stopped       bool
	pending       []modelEvent
	status        []int  // by id
	at            []Time // by id
	everCancelled []bool // by id: Cancel reached it, before or after firing
	post, laned   []bool // by id: scheduled with Post; and a lane took it

	// The trains rule: the newest id scheduled for each of the last two
	// instants (-1 for none), and how many schedules chained behind one.
	tails [trainWays]struct {
		at Time
		id int
	}
	chained uint64
	// The lane rule: each open lane's newest instant, and how many posts a
	// lane took and how many fell back.
	newest         []Time
	lanedN, fellBk uint64
	// Stops called from a laned post, and runs whose deadline fell between
	// two queued lane entries.
	lanedStops, splitRuns int
}

func newModelSys() *modelSys {
	s := &modelSys{}
	for i := range s.tails {
		s.tails[i].id = -1
	}
	return s
}

func (s *modelSys) queued(id int) bool { return id >= 0 && s.status[id] == modelPending }

func (s *modelSys) now() Time { return s.clock }
func (s *modelSys) schedule(id int, delay Time, _, post bool) {
	at := s.clock + delay
	if post {
		// First fit: the first lane whose newest is not after at, else a
		// new lane while there is room, else the calendar.
		i := 0
		for i < len(s.newest) && s.newest[i] > at {
			i++
		}
		if i < laneCap {
			if i == len(s.newest) {
				s.newest = append(s.newest, at)
			}
			s.newest[i] = at
			s.insert(id, at, s.seq)
			s.seq++
			s.post[id], s.laned[id] = true, true
			s.lanedN++
			return
		}
		s.fellBk++
	}
	w := &s.tails[0]
	if w.at != at || !s.queued(w.id) {
		if w = &s.tails[1]; w.at != at || !s.queued(w.id) {
			s.tails[1] = s.tails[0]
			w = &s.tails[0]
			w.at, w.id = at, -1
		}
	}
	if w.id >= 0 {
		s.chained++
	}
	w.id = id
	s.insert(id, at, s.seq)
	s.seq++
	s.post[id] = post
}
func (s *modelSys) reserve(n int) { s.seq += uint64(n) }
func (s *modelSys) insert(id int, at Time, seq uint64) {
	i := sort.Search(len(s.pending), func(i int) bool {
		p := s.pending[i]
		return p.at > at || p.at == at && p.seq > seq
	})
	s.pending = append(s.pending, modelEvent{})
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = modelEvent{at: at, seq: seq, id: id}
	s.status = append(s.status, modelPending)
	s.at = append(s.at, at)
	s.everCancelled = append(s.everCancelled, false)
	s.post = append(s.post, false)
	s.laned = append(s.laned, false)
}
func (s *modelSys) cancel(id int) {
	if s.post[id] {
		return // a post has no handle to cancel it by
	}
	s.everCancelled[id] = true
	if s.status[id] != modelPending {
		return
	}
	s.status[id] = modelCancelled
	for i, ev := range s.pending {
		if ev.id == id {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}
func (s *modelSys) fireHead() {
	ev := s.pending[0]
	s.pending = s.pending[1:]
	s.clock = ev.at
	s.status[ev.id] = modelFired
	s.r.onFire(ev.id)
}
func (s *modelSys) runUntil(t Time) {
	before, after := false, false
	for _, ev := range s.pending {
		if s.laned[ev.id] {
			before, after = before || ev.at <= t, after || ev.at > t
		}
	}
	if before && after {
		s.splitRuns++
	}
	for s.stopped = false; !s.stopped && len(s.pending) > 0 && s.pending[0].at <= t; {
		s.fireHead()
	}
	if s.clock < t {
		s.clock = t
	}
}
func (s *modelSys) run() {
	for s.stopped = false; !s.stopped && len(s.pending) > 0; {
		s.fireHead()
	}
}
func (s *modelSys) stop() {
	s.stopped = true
	if s.laned[s.r.firing] {
		s.lanedStops++
	}
}
func (s *modelSys) state() string {
	return fmt.Sprintf("now %v fired %d pending %d", s.clock, len(s.r.fired), len(s.pending))
}

// runQueueScript executes data on every system, comparing each engine with
// the model after every operation: firing order, clock, Fired, Pending,
// Chained, the laned and fallen-back posts, Passed, what each Stop left
// queued, and every handle ever issued. It returns the model, whose counters say what the script
// exercised.
func runQueueScript(t *testing.T, data []byte) *modelSys {
	t.Helper()
	if len(data) > 4096 {
		data = data[:4096]
	}
	plain, sharded := NewEngine(1), NewShardedEngine(1, 1)
	engs := []*engineSys{{e: plain, q: &plain.q}, {e: sharded, q: &sharded.shards[0].q}}
	for _, eng := range engs {
		eng.r = &scriptRun{sys: eng, stops: map[int]bool{}}
	}
	model := newModelSys()
	mr := &scriptRun{sys: model, stops: map[int]bool{}}
	model.r = mr

	checked := make([]int, len(engs))
	check := func(op int) {
		t.Helper()
		for i, eng := range engs {
			er := eng.r
			if len(er.fired) != len(mr.fired) {
				t.Fatalf("op %d: %T fired %d events, model %d", op, eng.e, len(er.fired), len(mr.fired))
			}
			for ; checked[i] < len(mr.fired); checked[i]++ {
				if er.fired[checked[i]] != mr.fired[checked[i]] {
					t.Fatalf("op %d: %T's firing #%d is event %d, model says %d", op, eng.e, checked[i], er.fired[checked[i]], mr.fired[checked[i]])
				}
			}
			if eng.e.Now() != model.clock {
				t.Fatalf("op %d: %T Now %v, model %v", op, eng.e, eng.e.Now(), model.clock)
			}
			if got := eng.e.Fired(); got != uint64(len(mr.fired)) {
				t.Fatalf("op %d: %T Fired %d, model %d", op, eng.e, got, len(mr.fired))
			}
			if got := eng.e.Pending(); got != len(model.pending) {
				t.Fatalf("op %d: %T Pending %d, model %d", op, eng.e, got, len(model.pending))
			}
			if got := eng.e.Stats().Chained; got != model.chained {
				t.Fatalf("op %d: %T Chained %d, model %d", op, eng.e, got, model.chained)
			}
			if laned, fellBack := eng.e.Posts(); laned != model.lanedN || fellBack != model.fellBk {
				t.Fatalf("op %d: %T laned %d posts and fell back on %d, model %d and %d", op, eng.e, laned, fellBack, model.lanedN, model.fellBk)
			}
			if fmt.Sprint(er.mid) != fmt.Sprint(mr.mid) {
				t.Fatalf("op %d: %T after each Stop: %q, model %q", op, eng.e, er.mid, mr.mid)
			}
			// Every node advance walks is a train's queue entry on its one
			// trip from the ring to near; a member in a bucket list, or a
			// laned post, would break this.
			if entries := uint64(er.nextID) - eng.e.Stats().Chained - model.lanedN; eng.q.visited > entries {
				t.Fatalf("op %d: %T's advance walked %d bucket nodes, only %d events ever led a train", op, eng.e, eng.q.visited, entries)
			}
			for _, seq := range er.reserved {
				for _, at := range []Time{er.doneAt - 1, er.doneAt, er.doneAt + 1} {
					if got, want := eng.e.Passed(at, seq), er.passed(at, seq); got != want {
						t.Fatalf("op %d: %T Passed(%v, %d) = %v, want %v", op, eng.e, at, seq, got, want)
					}
				}
			}
			for id, h := range eng.handles {
				if model.post[id] {
					continue // no handle
				}
				if model.status[id] == modelPending {
					if !h.Active() || h.Cancelled() || h.When() != model.at[id] {
						t.Fatalf("op %d: %T's pending event %d reads Active=%v Cancelled=%v When=%v, want true false %v",
							op, eng.e, id, h.Active(), h.Cancelled(), h.When(), model.at[id])
					}
				} else if h.Active() || (h.Cancelled() && !model.everCancelled[id]) {
					t.Fatalf("op %d: %T's finished event %d (state %d) reads Active=%v Cancelled=%v",
						op, eng.e, id, model.status[id], h.Active(), h.Cancelled())
				}
			}
		}
	}
	op := 0
	for ; len(data) >= 4 && mr.nextID < maxScriptEvents; data, op = data[4:], op+1 {
		for _, eng := range engs {
			eng.r.step(data[:4])
		}
		mr.step(data[:4])
		check(op)
	}
	for _, eng := range engs {
		eng.run()
	}
	model.run()
	check(op)
	return model
}

func TestQueueOrderRandomScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var laned, fellBack uint64
	stops, splits := 0, 0
	for i := 0; i < 300; i++ {
		data := make([]byte, 4*(20+rng.Intn(300)))
		rng.Read(data)
		m := runQueueScript(t, data)
		laned += m.lanedN
		fellBack += m.fellBk
		stops += m.lanedStops
		splits += m.splitRuns
	}
	// The scripts must reach what they are there to check: posts on the
	// lanes and past the last lane, Stop from a laned post, and deadlines
	// between two lane entries.
	t.Logf("%d posts laned, %d fell back, %d Stops from a laned post, %d runs split a lane", laned, fellBack, stops, splits)
	if laned < 20000 || fellBack < 1000 || stops < 100 || splits < 100 {
		t.Errorf("%d posts laned, %d fell back, %d Stops from a laned post, %d runs split a lane; want 20000, 1000, 100 and 100", laned, fellBack, stops, splits)
	}
}

// FuzzQueueOrder lets the native fuzzer search for a script on which the
// tiered queue and the sorted-slice model disagree.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 2, 9, 0, 6, 2, 1, 0, 0, 2, 2, 0, 6, 4, 0, 0})                         // peek over a gap, then schedule behind it
	f.Add([]byte{0, 0, 0, 0, 0, 2, 5, 0, 0, 4, 9, 0, 4, 0, 0, 0, 4, 0, 1, 0, 4, 0, 2, 0}) // cancel in each tier
	f.Add([]byte{0, 3, 0, 0, 0, 3, 1, 0, 0, 3, 2, 0, 0, 3, 3, 0, 6, 4, 0, 1})             // ring horizon, then a jump
	f.Add([]byte{3, 4, 255, 255, 6, 4, 255, 255, 3, 1, 7, 0, 5, 0, 0, 0, 0, 1, 7, 0})
	// Trains: a five-wide burst in near, ring and far, each losing its leader.
	f.Add([]byte{8, 0, 0x30, 0, 10, 0, 5, 0, 8, 2, 0x30, 0, 10, 0, 5, 0, 8, 4, 0x30, 0, 10, 0, 5, 0, 6, 4, 255, 255})
	// A bucket holding instant d, then d+1, then a second train for d (its
	// tail was evicted), which loses its leader.
	f.Add([]byte{8, 2, 0x60, 0, 0, 2, 0x60, 0, 4, 0, 10, 0, 6, 4, 0, 0})
	// A train's tail is cancelled, another slot is freed on top of it, then
	// its instant is scheduled for again.
	f.Add([]byte{0, 4, 1, 0, 8, 2, 0x10, 0, 4, 0, 3, 0, 4, 0, 4, 0, 0, 2, 0x10, 0, 6, 4, 0, 0})
	// A remembered tail is cancelled and its slot reused for another
	// instant before the first instant is scheduled for again.
	f.Add([]byte{0, 2, 5, 0, 4, 0, 0, 0, 0, 2, 9, 0, 0, 2, 5, 0, 6, 4, 0, 0})
	// Stop inside a ring train's member, zero-delay work behind the rest.
	f.Add([]byte{8, 2, 0x30, 0, 12, 0, 1, 0, 0, 0, 0, 0, 6, 4, 0, 0})
	// Cancel the tail, then a middle member, each followed by an append.
	f.Add([]byte{8, 2, 0x30, 0, 11, 0, 0, 0, 11, 0, 3, 0, 6, 3, 0, 0})
	// A nine-wide far train migrates far -> ring -> near, cancelled on the way.
	f.Add([]byte{8, 4, 0x70, 0, 6, 3, 0, 0, 10, 0, 2, 0, 9, 4, 0x70, 0, 6, 2, 255, 0, 6, 4, 0, 0})
	// Leaders-only buckets (op 13; m = trains-1 | (width-2)<<2 | victim<<4 |
	// what<<6). Four trains in one ring bucket, three times over: the first,
	// a middle and the last lose their leader; then a train alone in its
	// bucket does.
	f.Add([]byte{13, 2, 0x07, 0, 13, 2, 0x17, 0, 13, 2, 0x37, 0, 13, 2, 0x04, 0, 6, 4, 0, 0})
	// The first member of a train is cancelled in near, ring and far.
	f.Add([]byte{13, 0, 0x45, 0, 13, 2, 0x55, 0, 13, 4, 0x65, 0, 6, 3, 0, 0, 6, 4, 255, 255})
	// Two-long trains: the leader goes, the tail is promoted and appended
	// to — in the current bucket, the ring and far; the far one then
	// migrates far -> ring -> near with its new chain.
	f.Add([]byte{13, 0, 0x01, 0, 13, 2, 0x31, 0, 13, 4, 0x01, 0, 6, 3, 0, 0, 10, 0, 1, 0, 6, 2, 255, 0, 6, 4, 255, 255})
	// Leader and promoted member both cancelled, in a bucket with two other
	// leaders, then the run stops inside what is left.
	f.Add([]byte{13, 2, 0x9a, 0, 12, 0, 2, 0, 6, 4, 0, 0})
	// A back-dated event between a train's leader and its first member
	// (schedule, reserve, schedule behind it, insert under the reserved
	// number) in near, ring and far; then each with the leader cancelled
	// while it waits there, and the ring one with itself cancelled there.
	f.Add([]byte{0, 1, 4, 0, 14, 0, 0, 0, 0, 1, 4, 0, 15, 0, 0, 0})
	f.Add([]byte{0, 2, 4, 0, 14, 0, 0, 0, 0, 2, 4, 0, 15, 0, 0, 0})
	f.Add([]byte{0, 4, 4, 0, 14, 0, 0, 0, 0, 4, 4, 0, 15, 0, 0, 0})
	f.Add([]byte{0, 1, 4, 0, 14, 0, 0, 0, 0, 1, 4, 0, 15, 0, 0, 0, 10, 0, 2, 0})
	f.Add([]byte{0, 2, 4, 0, 14, 0, 0, 0, 0, 2, 4, 0, 15, 0, 0, 0, 10, 0, 2, 0})
	f.Add([]byte{0, 4, 4, 0, 14, 0, 0, 0, 0, 4, 4, 0, 15, 0, 0, 0, 10, 0, 2, 0})
	f.Add([]byte{0, 2, 4, 0, 14, 0, 0, 0, 0, 2, 4, 0, 15, 0, 0, 0, 10, 0, 0, 0})
	// Posts (bit 4 of byte 0). A 22-post fan-out on one instant, unbroken
	// for 14, then interrupted, in near, ring and far.
	f.Add([]byte{0x18, 0, 0x47, 0x01, 6, 4, 255, 255})
	f.Add([]byte{0x18, 2, 0x47, 0x01, 6, 4, 255, 255})
	f.Add([]byte{0x18, 4, 0x47, 0x01, 6, 4, 255, 255})
	// A fan-out whose every fifth post is followed by a reserved number,
	// then an insert under one at the fan-out's instant.
	f.Add([]byte{0x18, 2, 0x40, 0x00, 15, 0, 0, 0, 6, 4, 0, 0})
	// A fan-out whose every fifth post is followed by an ordinary schedule
	// for the same instant.
	f.Add([]byte{0x18, 2, 0x48, 0x00, 6, 4, 0, 0})
	// Stop from a post in the middle of a lane, then zero-delay posts
	// behind it, and a post for the next microsecond.
	f.Add([]byte{0x18, 2, 0x43, 0x00, 12, 0, 2, 0, 0x10, 0, 0, 0, 0x10, 0, 0, 0, 0x11, 1, 0, 0, 6, 4, 0, 0})
	// A cancel aimed at a post (a no-op), then a post for its instant.
	f.Add([]byte{0x18, 2, 0x42, 0x00, 11, 0, 0, 0, 6, 4, 0, 0})
	// Lanes (bit 5 of byte 0 on a burst): 17 interleaved monotone post
	// streams, one more than the lanes, for two rounds in near, ring and
	// far, so the last stream falls back each round.
	f.Add([]byte{0x28, 0, 0x00, 0x00, 6, 4, 255, 255})
	f.Add([]byte{0x28, 2, 0x00, 0x00, 6, 4, 255, 255})
	f.Add([]byte{0x28, 4, 0x40, 0x00, 6, 4, 255, 255})
	// Streams, then runs whose deadline is a recent post's instant and the
	// one before it (bit 5 on a run), then a Stop from a laned post.
	f.Add([]byte{0x28, 2, 0x05, 0x00, 0x26, 2, 0, 0, 0x26, 1, 3, 0, 12, 0, 1, 0, 6, 4, 255, 255})
	// A ten-post fan-out on one instant, its every fifth post followed by
	// an ordinary schedule for the instant, the second of which is
	// cancelled: lane entries with calendar keys between them.
	f.Add([]byte{0x18, 2, 0x89, 0x00, 6, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runQueueScript(t, data) })
}

// bucketTime is the first instant of bucket b.
func bucketTime(b int64) Time { return Time(b << bucketShift) }

// tiers reports how many entries (lone events and train leaders) each tier
// holds; entries is their sum.
func (q *equeue) tiers() string {
	return fmt.Sprintf("near %d ring %d far %d", len(q.near), q.ringN, len(q.far))
}

func (q *equeue) entries() int { return len(q.near) + q.ringN + len(q.far) }

// A RunUntil that stops inside an idle gap has already peeked at the next
// event and advanced the current bucket to it. Scheduling into the gap
// afterwards targets a bucket the ring has passed; it must still fire first.
func TestQueueScheduleIntoPassedBucket(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(bucketTime(10)+5, Func(func() { order = append(order, "late") }))
	e.RunUntil(bucketTime(2))
	if e.q.cur != 10 {
		t.Fatalf("RunUntil did not peek ahead: current bucket %d, want 10", e.q.cur)
	}
	e.At(bucketTime(10)+1, Func(func() { order = append(order, "same-bucket-earlier") }))
	e.Schedule(bucketTime(1), func() { order = append(order, "passed-bucket") })
	e.Schedule(0, func() { order = append(order, "now") })
	if got := e.q.tiers(); got != "near 4 ring 0 far 0" {
		t.Fatalf("tiers: %s", got)
	}
	e.Run()
	if got := fmt.Sprint(order); got != "[now passed-bucket same-bucket-earlier late]" {
		t.Fatalf("order %s", got)
	}
}

func TestQueueCancelInEachTier(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	at := []Time{3, bucketTime(1) - 1, bucketTime(7), bucketTime(7) + 1, bucketTime(7) + 2, bucketTime(ringSize - 1),
		bucketTime(ringSize), bucketTime(ringSize) + 9, bucketTime(3 * ringSize)}
	hs := make([]Handle, len(at))
	for i, a := range at {
		i := i
		hs[i] = e.At(a, Func(func() { fired = append(fired, i) }))
	}
	if got := e.q.tiers(); got != "near 2 ring 4 far 3" {
		t.Fatalf("tiers: %s", got)
	}
	// One from near; head, middle and a sole occupant from ring buckets; the
	// root of far.
	for n, i := range []int{0, 2, 3, 5, 6} {
		e.Cancel(hs[i])
		if hs[i].Active() || !hs[i].Cancelled() || e.Pending() != len(at)-n-1 {
			t.Fatalf("after cancelling %d: Active=%v Cancelled=%v Pending=%d", i, hs[i].Active(), hs[i].Cancelled(), e.Pending())
		}
	}
	if got := e.q.tiers(); got != "near 1 ring 1 far 2" {
		t.Fatalf("tiers after cancels: %s", got)
	}
	e.Run()
	if got := fmt.Sprint(fired); got != "[1 4 7 8]" {
		t.Fatalf("fired %s", got)
	}
}

// The ring covers buckets cur+1 .. cur+ringSize-1; an event exactly ringSize
// buckets ahead shares a slot with the current bucket and must wait in far.
func TestQueueRingWrapAround(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(bucketTime(ringSize-3) + 17) // slots wrap during this test
	e.Schedule(0, func() {})
	e.Run() // the current bucket is now the clock's bucket
	base := e.q.cur
	var fired []int64
	for _, ahead := range []int64{ringSize + 1, ringSize, ringSize - 1, 1} {
		ahead := ahead
		e.At(bucketTime(base+ahead), Func(func() { fired = append(fired, ahead) }))
	}
	if got := e.q.tiers(); got != "near 0 ring 2 far 2" {
		t.Fatalf("tiers: %s", got)
	}
	// Firing the first event makes RunUntil peek at the next one, ringSize-1
	// buckets on; the horizon moves with it and both far events drop into
	// the slots the first two buckets just vacated.
	e.RunUntil(bucketTime(base + 1))
	if got := e.q.tiers(); got != "near 1 ring 2 far 0" || len(fired) != 1 {
		t.Fatalf("tiers after one bucket: %s, fired %v", got, fired)
	}
	e.Run()
	if got := fmt.Sprint(fired); got != fmt.Sprint([]int64{1, ringSize - 1, ringSize, ringSize + 1}) {
		t.Fatalf("fired %s", got)
	}
	if e.Now() != bucketTime(base+ringSize+1) {
		t.Fatalf("clock %v", e.Now())
	}
}

// With near and ring empty the queue jumps straight to far's earliest
// bucket instead of walking the ring.
func TestQueueJumpToFar(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	rec := func() { fired = append(fired, e.Now()) }
	want := []Time{10 * Second, 10*Second + 1, 10*Second + bucketTime(2), 20 * Second, 3600 * Second}
	for i := len(want) - 1; i >= 0; i-- {
		e.At(want[i], Func(rec))
	}
	if got := e.q.tiers(); got != "near 0 ring 0 far 5" {
		t.Fatalf("tiers: %s", got)
	}
	e.RunUntil(10 * Second)
	if got := e.q.tiers(); got != "near 1 ring 1 far 2" || len(fired) != 1 {
		t.Fatalf("after the jump: %s, fired %v", got, fired)
	}
	e.Schedule(5, rec) // ordinary scheduling keeps working around the new bucket
	want = append(want[:2], append([]Time{10*Second + 5}, want[2:]...)...)
	e.Run()
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// A slot cancelled out of a ring bucket is recycled for the next schedule;
// the old handle must stay inert and cancelling it must not touch the new
// occupant, whichever tier that one lives in.
func TestQueueRingCancelSlotReuse(t *testing.T) {
	for _, reuseAt := range []Time{1, bucketTime(5), bucketTime(2 * ringSize)} {
		e := NewEngine(1)
		e.At(bucketTime(5)+1, Func(func() {})) // keeps the bucket's list non-trivial
		stale := e.At(bucketTime(5)+2, Func(func() { t.Error("cancelled event fired") }))
		e.Cancel(stale)
		fired := false
		fresh := e.At(reuseAt, Func(func() { fired = true }))
		if fresh.ev != stale.ev {
			t.Fatal("slot was not recycled")
		}
		if stale.Active() || stale.Cancelled() || stale.When() != 0 {
			t.Fatalf("stale handle reads Active=%v Cancelled=%v When=%v", stale.Active(), stale.Cancelled(), stale.When())
		}
		e.Cancel(stale)
		if !fresh.Active() || e.Pending() != 2 {
			t.Fatalf("stale cancel disturbed the new occupant: Active=%v Pending=%d", fresh.Active(), e.Pending())
		}
		e.Run()
		if !fired {
			t.Fatalf("recycled slot at %v never fired", reuseAt)
		}
	}
}

// BenchmarkHold is the classic hold model, the same one the repository
// benchmark's sim.hold_ns_per_event drive uses: a standing population of
// events, each of which re-schedules itself an exponential delay (mean one
// simulated second) ahead when it fires. One op is one fire + re-schedule.
func BenchmarkHold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var delays [4096]Time
	for i := range delays {
		delays[i] = Time(rng.ExpFloat64()*float64(Second)) + 1
	}
	for _, population := range []int{8_000, 36_000} {
		b.Run(fmt.Sprintf("pending%d", population), func(b *testing.B) {
			e := NewEngine(1)
			n := 0
			var fire func()
			fire = func() {
				n++
				e.Schedule(delays[n&4095], fire)
			}
			for i := 0; i < population; i++ {
				e.Schedule(delays[i&4095], fire)
			}
			for i := 0; i < 4*population; i++ { // settle into the steady-state spread
				e.step(noEvent)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.step(noEvent)
			}
		})
	}
}

// TestEventSlabs runs a fixed schedule/cancel/fire script that takes slots
// out of several slabs. EventAllocs must count Event structs as it did when
// each was an allocation of its own (so sim.event_slot_allocs does not move):
// one per acquisition the free list could not serve. Handles to neighbouring
// slots on either side of a slab boundary must stay independent, and a slot's
// stale handle inert, exactly as for individually allocated slots. Every
// slot is one 64-byte cache line of its own, and a lane chunk, alone or in
// a block, fills its size class.
func TestEventSlabs(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 64 {
		t.Errorf("Event is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(eventSlabMem{}); eventSlab != 95 || got+8 != 6144 {
		t.Errorf("a %d-slot slab is %d bytes; want 95 slots filling the 6144-byte size class with the allocator's 8-byte header", eventSlab, got)
	}
	if got := unsafe.Sizeof(laneChunk{}); got+8 > 1024 || laneBlockMax*got+8 > 32768 {
		t.Errorf("a lane chunk is %d bytes; want it and a block of %d within the 1024- and 32768-byte size classes with the allocator's 8-byte header", got, laneBlockMax)
	}
	e := NewEngine(1)
	fired := 0
	count := func() { fired++ }
	wantAllocs, free := uint64(0), 0 // the free-list model
	schedule := func(at Time) Handle {
		if free > 0 {
			free--
		} else {
			wantAllocs++
		}
		return e.At(at, Func(count))
	}
	// 300 events: slots 0..299, the last ones in a third slab.
	var hs []Handle
	for i := 0; i < 300; i++ {
		hs = append(hs, schedule(Time(i+1)*Millisecond))
	}
	for i, h := range hs {
		if a := uintptr(unsafe.Pointer(h.ev)); a%64 != 0 {
			t.Fatalf("slot %d at %#x is not 64-byte aligned", i, a)
		}
	}
	last, first := hs[eventSlab-1], hs[eventSlab] // last slot of slab 0, first of slab 1
	if last.ev == first.ev || !last.Active() || !first.Active() {
		t.Fatal("slots on either side of the slab boundary are not distinct live events")
	}
	e.Cancel(last)
	free++
	if !last.Cancelled() || last.Active() || first.Cancelled() || !first.Active() {
		t.Fatalf("cancel across the boundary: last Cancelled=%v Active=%v, first Cancelled=%v Active=%v",
			last.Cancelled(), last.Active(), first.Cancelled(), first.Active())
	}
	for i := 0; i < 300; i += 3 { // cancel every third (slot eventSlab-1 = 94 is not among them)
		e.Cancel(hs[i])
		free++
	}
	e.RunUntil(150 * Millisecond) // fires what is left of the first 150
	free += fired
	if want := 150 - 50 - 1; fired != want {
		t.Fatalf("fired %d of the first 150, want %d", fired, want)
	}
	// The free list now serves 200 acquisitions; 250 more than that spill
	// into fresh slabs.
	for i := 0; i < 450; i++ {
		h := schedule(Second + Time(i))
		if h.ev != last.ev {
			continue
		}
		// last's slot, recycled: its old handle is inert and cancelling
		// through it leaves the new occupant alone.
		e.Cancel(last)
		if last.Cancelled() || last.Active() || last.When() != 0 || !h.Active() {
			t.Fatalf("stale handle after reuse: Cancelled=%v Active=%v When=%v; new occupant Active=%v",
				last.Cancelled(), last.Active(), last.When(), h.Active())
		}
		last = Handle{}
	}
	if !last.IsZero() {
		t.Fatal("the slot cancelled at the slab boundary was never recycled")
	}
	if got := e.EventAllocs(); got != wantAllocs || got != 550 {
		t.Errorf("EventAllocs = %d, free-list model says %d, the one-struct-per-miss engine counted 550", got, wantAllocs)
	}
	if got := e.EventReuses(); got != 200 {
		t.Errorf("EventReuses = %d, want 200", got)
	}
	e.Run()
	if want := 99 + 100 + 450; fired != want {
		t.Errorf("fired %d events in all, want %d", fired, want)
	}
	// One slab allocation serves eventSlab schedules.
	mallocs := testing.AllocsPerRun(10, func() {
		e := NewEngine(1)
		for i := 0; i < 1000; i++ {
			e.At(Time(i), Func(count))
		}
	})
	if engine := testing.AllocsPerRun(10, func() { NewEngine(1) }); mallocs-engine > 1000/eventSlab+1+12 {
		t.Errorf("scheduling 1000 events on a fresh engine cost %.0f mallocs beyond the engine's own %.0f; want one per %d-slot slab plus the heap's and free list's growth", mallocs-engine, engine, eventSlab)
	}
}
