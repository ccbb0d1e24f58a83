package sim

import (
	"fmt"
	"math"
	"unsafe"
)

// The ring's geometry is fixed: 16384 buckets of 256 µs give a 4.2 s
// horizon. Narrow buckets keep the near heap shallow (it holds the current
// bucket's events); the span keeps per-second timers out of the far heap.
// Powers of two make bucket and slot a shift and a mask. They are constants
// on purpose: DESIGN.md §5 records the sweep that chose them.
const (
	bucketShift = 8
	ringSize    = 16384
	ringMask    = ringSize - 1
)

// eventSlab is how many Event slots one allocation provides. A slab is an
// eventSlabMem: objects of the 6144-byte size class sit at multiples of
// 6144 (96 lines) from a page-aligned span start, and the allocator writes
// an 8-byte type header in front of every pointerful object above 512
// bytes, so 56 bytes of padding put slot 0 — and with it every slot — on a
// line boundary, and 95 slots fill the class exactly. (96 slots would need
// 6152 bytes: the next class, with every slot straddling two lines.)
const eventSlab = 95

// eventSlabMem is one slab allocation; TestEventSlabs pins its alignment.
type eventSlabMem struct {
	_     [56]byte
	slots [eventSlab]Event
}

// trainWays is how many instants schedule remembers the newest event of.
// Two, because a fan-out burst alternated between this level's arrivals and
// the next level's deliveries while deliveries were calendar events. Link
// deliveries ride the lanes now, and 1–4 % of the four benchmark
// workloads' events chain (DESIGN.md §5 records what trains still save).
const trainWays = 2

// laneCap is how many FIFO lanes a queue keeps for posts; a post no lane
// can take goes through schedule. DESIGN.md §5 records the sweep.
const laneCap = 32

// laneChunkLen is how many entries one lane chunk holds: 31 entries of 32
// bytes and the link to the next chunk fill the 1024-byte size class, with
// the allocator's 8-byte header.
const laneChunkLen = 31

// The queue carves lane chunks in blocks: laneBlock in its first
// allocation of them, then as many as all before, up to laneBlockMax, so a
// run with 10^4 posts pending makes about twenty allocations and carves at
// most one 32 KB block more than it needs.
const (
	laneBlock    = 4
	laneBlockMax = 32
)

// laneEnt is one post waiting in a lane.
type laneEnt struct {
	at  Time
	seq uint64
	act Action
}

// laneChunk is a run of a lane's entries. next links the lane's chunks
// oldest first, or, on the queue's free list, the free chunks.
type laneChunk struct {
	ents [laneChunkLen]laneEnt
	next *laneChunk
}

// lane is a FIFO of posts in (time, sequence) order: head.ents[hi] is its
// oldest entry and tail.ents[ti-1] its newest. An empty lane keeps one chunk
// and reads ti == 0.
type lane struct {
	head, tail *laneChunk
	hi, ti     int
}

// laneKey is a non-empty lane's oldest entry's key, in the lane heap.
type laneKey struct {
	at   Time
	seq  uint64
	lane int
}

func keyLess(a, b *laneKey) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

// equeue is the event store shared by the single-threaded Engine, each
// shard of the ShardedEngine and its global barrier queue. Events are
// ordered by (time, sequence) and kept in three tiers by time bucket
// (at >> bucketShift) relative to the current bucket cur:
//
//   - near: a 4-ary min-heap of every event whose bucket is <= cur. Only
//     this tier is ever sorted, and everything outside it is strictly
//     later, so its root is the queue's earliest event: firing order is
//     exactly the total (time, sequence) order of one big heap.
//   - ring: buckets cur < b < cur+ringSize, each an unordered intrusive
//     circular list of leaders threaded through Event.next/prev, so
//     scheduling past the current bucket is an O(1) link, cancelling an O(1)
//     unlink, and neither allocates.
//   - far: a second heap for events at or beyond the ring horizon, drained
//     into the ring as cur advances.
//
// Same-instant events are queued as trains: schedule remembers the newest
// event of the last trainWays instants, and an event for a remembered
// instant is linked behind that tail as a member (index idxMember) instead
// of entering a tier; only the train's first event, its leader, is a queue
// entry. Nothing else at that instant can have a sequence number between
// tail and newcomer, so leader-then-members is (time, sequence) order. A
// train is the same shape in every tier: Event.mem points at the next event
// of the train (nil at its tail), a member's prev at the one before it. When
// pop or remove takes a leader, its first member becomes the leader in its
// place by stores alone: mem already points at the rest of the train.
//
// When near runs dry, first moves cur to the next non-empty bucket and pushes
// that bucket's list onto the near heap. The list holds leaders only, so the
// walk never touches a member.
//
// A caller may also take a run of sequence numbers now (reserve) and queue
// an event under one of them later (backdate): the event keeps the place in
// (time, sequence) order that scheduling it at reservation time would have
// given it, so firing order stays the total order of one big heap. Such an
// event is a leader of its own, never a member or a remembered tail, since
// its number may sort before a train's tail. It may also sort between a
// leader and that leader's first member, which breaks the promote-by-stores
// rule above; so while a back-dated event may be queued (its instant is
// before backEnd), pop and remove sift the promoted member. Otherwise the
// promotion stays stores alone. The queue also keeps the key of the last
// action it fired (or of an instant a run completed), so its owner can tell
// whether a reserved key has already gone by.
//
// A post (an uncancellable schedule) takes no Event slot: it takes its
// sequence number and is appended to the first of up to laneCap FIFO lanes
// whose newest entry is not after it (first fit), so each lane is sorted by
// (time, sequence). First fit keeps the lanes' newest times non-increasing
// by lane index — a post skips only lanes whose newest is after it and
// becomes the newest of a lane whose newest was not — so a bisection finds
// the lane. A small binary heap holds each non-empty lane's oldest key, and
// first fires the earlier of its root and near's: merging sorted lanes with
// the calendar by key is the order of one big heap. When the popped entry's
// successor in its lane has the same instant, no other lane can hold a key
// between them, so the heap is not touched: from the first of the two on,
// this lane's newest was their instant and every lane before it was later,
// so every post for that instant numbered in between went to this lane. (A
// calendar event may sort between them; the merge sees it.) A post no lane
// can take — every lane's newest is after it and all laneCap are open —
// goes through schedule.
//
// A free list recycles fired or cancelled Event slots so the steady-state
// schedule/fire cycle performs no allocations; slots the free list cannot
// supply are carved from eventSlab-sized arrays, so a burst of new events
// (a world's start-up timers) costs one allocation per slab and its slots
// sit side by side. The free list is intrusive, linked through Event.next
// (a free slot is in no bucket list), so releasing never allocates. Lane
// chunks are carved in blocks that double and are recycled through an
// intrusive free list of their own.
//
// An equeue is single-owner: exactly one goroutine may touch it at a time.
// The Engine owns its queue outright; a shard's queue is owned by the
// shard's worker during a window and by the barrier goroutine between
// windows (the window handoff provides the happens-before edge).
type equeue struct {
	near, far eheap
	ring      [ringSize]*Event // bucket b's list head lives in slot b&ringMask
	ringN     int              // leaders linked in the ring
	n         int              // events queued: leaders, members and lane entries
	cur       int64            // current bucket; only ever advances
	tails     [trainWays]struct {
		at   Time
		tail Handle // newest event scheduled for at; a tail only while it is Active
	}
	free *Event  // the free list, linked through Event.next
	slab []Event // slots of the newest slab not handed out yet
	seq  uint64

	// The post lanes: lanes[:nl] are open, newest[i] is the time of the
	// newest entry lane i ever took, and lh[:lhN] is the heap of the
	// non-empty lanes' oldest keys.
	lanes      [laneCap]lane
	newest     [laneCap]Time
	nl         int
	lh         [laneCap]laneKey
	lhN        int
	chunkFree  *laneChunk
	chunks     []laneChunk // chunks of the newest block not handed out yet
	chunksMade int         // chunks carved so far
	// warmed takes the byte warmNext reads, so the read is not compiled
	// away; nothing reads it.
	warmed byte

	// Every event keyed before (doneAt, doneSeq) has fired: the last fired
	// action's key plus one, or (t, MaxUint64) once a run has completed t.
	doneAt  Time
	doneSeq uint64
	backEnd Time // one past the latest instant a back-dated event was queued for

	slotAllocs uint64 // Event structs ever handed out fresh (slots, not slabs)
	slotReuses uint64 // acquisitions served from the free list
	chained    uint64 // schedules that joined a train instead of a tier
	laned      uint64 // posts a lane took
	fellBack   uint64 // posts no lane could take, scheduled instead
	visited    uint64 // bucket-list nodes advance has walked: leaders, never members
}

func bucketOf(ev *Event) int64 { return int64(ev.at) >> bucketShift }

func (q *equeue) len() int { return q.n }

// schedule queues a at t and returns its handle: behind the remembered
// tail of t's train while that is still queued (a handle to a slot that
// fired, was cancelled or has been reused is not Active), else as a new
// leader whose instant takes the older way.
func (q *equeue) schedule(t Time, a Action) Handle {
	ev := q.acquire(t, q.seq, a)
	q.seq++
	h := Handle{ev: ev, gen: ev.gen}
	q.n++
	w := &q.tails[0]
	if w.at != t || !w.tail.Active() {
		if w = &q.tails[1]; w.at != t || !w.tail.Active() {
			*w = q.tails[0]
			q.tails[0].at, q.tails[0].tail = t, h
			q.push(ev)
			return h
		}
	}
	tail := w.tail.ev
	ev.prev, ev.index, tail.mem = tail, idxMember, ev
	w.tail = h
	q.chained++
	return h
}

// post queues a at t like schedule, with no handle: on the first lane whose
// newest entry is not after t, opening a lane when none is and fewer than
// laneCap are open, else through schedule.
func (q *equeue) post(t Time, a Action) {
	i := 0
	if q.nl == 0 || q.newest[0] > t {
		// The first lane whose newest is not after t: newest is
		// non-increasing, so bisect the lanes after lane 0.
		lo, hi := min(1, q.nl), q.nl
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); q.newest[m] <= t {
				hi = m
			} else {
				lo = m + 1
			}
		}
		if i = lo; i == q.nl {
			if i == laneCap {
				q.fellBack++
				q.schedule(t, a)
				return
			}
			c := q.newChunk()
			q.lanes[i] = lane{head: c, tail: c}
			q.nl++
		}
	}
	l := &q.lanes[i]
	if l.ti == 0 { // empty: the post is the lane's oldest entry
		q.lhPush(laneKey{at: t, seq: q.seq, lane: i})
	} else if l.ti == laneChunkLen {
		c := q.newChunk()
		l.tail.next = c
		l.tail, l.ti = c, 0
	}
	l.tail.ents[l.ti] = laneEnt{at: t, seq: q.seq, act: a}
	l.ti++
	q.newest[i] = t
	q.seq++
	q.n++
	q.laned++
}

// popLane removes the lane heap's root entry, the queue's head, and
// returns its Action. When the lane's next entry is for the same instant
// it stays the root without a sift: every post for that instant numbered
// since went to this lane, so no other lane holds a key between the two.
func (q *equeue) popLane() Action {
	k := &q.lh[0]
	l := &q.lanes[k.lane]
	c := l.head
	e := &c.ents[l.hi]
	a := e.act
	e.act = nil
	q.n--
	q.doneAt, q.doneSeq = k.at, k.seq+1
	if l.hi++; c == l.tail && l.hi == l.ti {
		l.hi, l.ti = 0, 0 // emptied: keep the chunk
		q.lhPop()
		return a
	}
	if l.hi == laneChunkLen {
		l.head, l.hi = c.next, 0
		c.next, q.chunkFree = q.chunkFree, c
	}
	if nx := &l.head.ents[l.hi]; nx.at == k.at {
		k.seq = nx.seq
	} else {
		k.at, k.seq = nx.at, nx.seq
		q.lhDown()
	}
	return a
}

// warmNext reads one byte at the Action of the lane heap's root entry, the
// post most likely to fire next, so a cache miss on it overlaps the firing
// of the action just popped. Every laned post of a network is a link
// delivery whose Action is the link itself, and a link keeps what its
// delivery reads in its first cache line. The read goes through *byte, so
// it is valid whatever the Action's type; it writes nothing the Action
// owns, and a lane only ever holds posts of its own queue's context, so no
// other goroutine writes what it reads.
func (q *equeue) warmNext() {
	if q.lhN == 0 {
		return
	}
	l := &q.lanes[q.lh[0].lane]
	if p := (*[2]unsafe.Pointer)(unsafe.Pointer(&l.head.ents[l.hi].act))[1]; p != nil {
		q.warmed = *(*byte)(p)
	}
}

// newChunk takes a lane chunk off the free list, or carves one.
func (q *equeue) newChunk() *laneChunk {
	if c := q.chunkFree; c != nil {
		q.chunkFree, c.next = c.next, nil
		return c
	}
	if len(q.chunks) == 0 {
		n := min(max(laneBlock, q.chunksMade), laneBlockMax)
		q.chunks = make([]laneChunk, n)
		q.chunksMade += n
	}
	c := &q.chunks[0]
	q.chunks = q.chunks[1:]
	return c
}

// lhPush adds k to the lane heap.
func (q *equeue) lhPush(k laneKey) {
	i := q.lhN
	q.lhN++
	for i > 0 {
		p := (i - 1) >> 1
		if !keyLess(&k, &q.lh[p]) {
			break
		}
		q.lh[i] = q.lh[p]
		i = p
	}
	q.lh[i] = k
}

// lhPop removes the lane heap's root.
func (q *equeue) lhPop() {
	q.lhN--
	if q.lhN > 0 {
		q.lh[0] = q.lh[q.lhN]
		q.lhDown()
	}
}

// lhDown moves the lane heap's root toward the leaves until neither child
// sorts before it.
func (q *equeue) lhDown() {
	n, i, k := q.lhN, 0, q.lh[0]
	for {
		c := i<<1 + 1
		if c >= n {
			break
		}
		if c+1 < n && keyLess(&q.lh[c+1], &q.lh[c]) {
			c++
		}
		if !keyLess(&q.lh[c], &k) {
			break
		}
		q.lh[i] = q.lh[c]
		i = c
	}
	q.lh[i] = k
}

// reserve takes n sequence numbers for events not queued yet and returns
// the first of them.
func (q *equeue) reserve(n int) uint64 {
	first := q.seq
	q.seq += uint64(n)
	return first
}

// backdate queues a at t under seq, a number reserve handed out, as a
// leader of its own. The key must still be ahead: (t, seq) not passed.
func (q *equeue) backdate(t Time, seq uint64, a Action) Handle {
	if a == nil {
		panic("sim: AtReserved with nil Action")
	}
	if seq >= q.seq || q.passed(t, seq) {
		panic(fmt.Sprintf("sim: back-dated event (%v, %d) was not reserved or has gone by", t, seq))
	}
	ev := q.acquire(t, seq, a)
	if t >= q.backEnd {
		q.backEnd = t + 1
	}
	q.n++
	q.push(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// passed reports whether an event keyed (t, seq) would already have fired.
func (q *equeue) passed(t Time, seq uint64) bool {
	return t < q.doneAt || t == q.doneAt && seq < q.doneSeq
}

// complete records that every event at or before t has fired.
func (q *equeue) complete(t Time) {
	if t >= q.doneAt {
		q.doneAt, q.doneSeq = t, math.MaxUint64
	}
}

// first readies the queue's earliest entry and returns its time and
// whether the lane heap's root holds it (else near's root does); ok is
// false when nothing is queued. With near empty and a lane entry waiting,
// the calendar advances no further than that entry's bucket, so near does
// not fill with events the lanes fire before. Advancing may move the
// current bucket past an idle gap; a later push into a bucket already
// passed simply joins the near heap.
func (q *equeue) first() (at Time, inLane, ok bool) {
	if q.lhN == 0 {
		if len(q.near) == 0 && !q.advance(math.MaxInt64) {
			return 0, false, false
		}
		return q.near[0].at, false, true
	}
	k := &q.lh[0]
	if len(q.near) == 0 {
		// Every calendar event is in a bucket after cur: after k if k's
		// bucket is not.
		if b := int64(k.at) >> bucketShift; b <= q.cur || !q.advance(b) {
			return k.at, true, true
		}
	}
	if ev := q.near[0]; ev.at < k.at || ev.at == k.at && ev.seq < k.seq {
		return ev.at, false, true
	}
	return k.at, true, true
}

// pop removes ev, the queue's head, and releases its slot. A leader's first
// member takes over its place at the root: it is the next event in (time,
// sequence) order, so the rest of a train fires without touching the heap
// (bar a sift while a back-dated event may sort before it).
func (q *equeue) pop(ev *Event) {
	if m := ev.mem; m != nil {
		m.prev, m.index, ev.mem = nil, 0, nil
		q.near[0] = m
		if ev.at < q.backEnd {
			q.near.siftDown(0)
		}
		ev.index = idxFired
	} else {
		q.near.pop()
	}
	q.n--
	q.doneAt, q.doneSeq = ev.at, ev.seq+1
	q.release(ev)
}

// push files leader ev, whatever train hangs off it, under the tier its time
// bucket belongs to.
func (q *equeue) push(ev *Event) {
	switch b := bucketOf(ev); {
	case b <= q.cur:
		q.near.push(ev)
	case b < q.cur+ringSize:
		// Append to the bucket's circular list (head.prev is the tail), so
		// advance sees leaders oldest first and its pushes rarely sift.
		if h := q.ring[b&ringMask]; h == nil {
			ev.next, ev.prev = ev, ev
			q.ring[b&ringMask] = ev
		} else {
			ev.next, ev.prev = h, h.prev
			h.prev.next = ev
			h.prev = ev
		}
		ev.index = 0
		q.ringN++
	default:
		q.far.push(ev)
	}
}

// remove takes a queued event out of its train or whichever tier holds it.
// The tier is implied by the event's bucket because advance keeps the tier
// bounds exact. A leader's first member is promoted into its place: it is
// the next event in (time, sequence) order, so a heap needs no sift unless
// a back-dated event may sort before it.
func (q *equeue) remove(ev *Event) {
	switch b, m := bucketOf(ev), ev.mem; {
	case ev.index == idxMember:
		if ev.prev.mem = m; m != nil {
			m.prev = ev.prev
		}
	case b > q.cur && b < q.cur+ringSize:
		// after is what stands where ev stood in the bucket's circle: its
		// first member, else the next leader, else nothing.
		after, before := ev.next, ev.prev
		if m != nil {
			if after == ev { // a circle of one
				after, before = m, m
			}
			m.next, m.prev, m.index = after, before, 0
			before.next, after.prev = m, m
			after = m
		} else {
			q.ringN--
			if before.next, after.prev = after, before; after == ev {
				after = nil
			}
		}
		if slot := &q.ring[b&ringMask]; *slot == ev {
			*slot = after
		}
	default:
		hp := &q.near
		if b > q.cur {
			hp = &q.far
		}
		if m != nil {
			m.prev, m.index = nil, ev.index
			(*hp)[ev.index] = m
			if ev.at < q.backEnd {
				hp.siftDown(int(ev.index))
			}
		} else {
			hp.remove(int(ev.index))
		}
	}
	ev.next, ev.prev, ev.mem = nil, nil, nil
	ev.index = idxFired
	q.n--
}

// advance refills the empty near heap: it moves cur to the next non-empty
// ring bucket (or, with the ring empty, jumps to far's earliest bucket), but
// no further than bucket limit, pushes that bucket's leaders onto near, and
// pulls far events that the new horizon now covers into the ring. It
// reports whether near holds events now: false when nothing is queued up
// to limit.
func (q *equeue) advance(limit int64) bool {
	b := q.cur + 1
	switch {
	case q.ringN > 0:
		for q.ring[b&ringMask] == nil && b < limit {
			b++
		}
	case len(q.far) > 0:
		b = min(bucketOf(q.far[0]), limit)
	default:
		return false
	}
	q.cur = b
	if h := q.ring[b&ringMask]; h != nil {
		q.ring[b&ringMask] = nil
		h.prev.next = nil // open the circle
		for ev := h; ev != nil; {
			next := ev.next
			ev.next, ev.prev = nil, nil
			q.ringN--
			q.visited++
			q.near.push(ev)
			ev = next
		}
	}
	for len(q.far) > 0 && bucketOf(q.far[0]) < b+ringSize {
		q.push(q.far.pop())
	}
	return len(q.near) > 0
}

// acquire takes an event slot from the free list (bumping its generation so
// stale handles go inert) or carves a fresh one from the current slab.
func (q *equeue) acquire(t Time, seq uint64, a Action) *Event {
	ev := q.free
	if ev != nil {
		q.free, ev.next = ev.next, nil
		ev.gen++
		q.slotReuses++
	} else {
		if len(q.slab) == 0 {
			q.slab = new(eventSlabMem).slots[:]
		}
		ev, q.slab = &q.slab[0], q.slab[1:]
		q.slotAllocs++
	}
	ev.at = t
	ev.seq = seq
	ev.act = a
	return ev
}

// release returns a slot to the free list. The generation is bumped on the
// next acquire, not here, so handles to the completed event still read
// their Cancelled state until the slot is reused.
func (q *equeue) release(ev *Event) {
	ev.act = nil // drop the Action's reference immediately
	ev.next, q.free = q.free, ev
}

// cancel implements the generation-checked Cancel contract on this queue.
// It is safe on a zero handle, a fired handle, and a stale handle.
func (q *equeue) cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.index == idxCancelled {
		return
	}
	// If it already fired (and was released), only record the cancel so
	// Cancelled() reads true until the slot is reused.
	if ev.index >= 0 {
		q.remove(ev)
		q.release(ev)
	}
	ev.index = idxCancelled
}

// less orders events by (time, sequence); sequence numbers are unique so
// the order is total and FIFO among equal timestamps.
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eheap is an indexed 4-ary min-heap of events ordered by eventLess, with
// the sift loops inlined (no container/heap interface calls). Each resident
// event's index field is its position, which makes removal O(log n).
type eheap []*Event

// push appends ev and restores the heap invariant.
func (hp *eheap) push(ev *Event) {
	i := len(*hp)
	*hp = append(*hp, ev)
	hp.siftUp(i)
}

// pop removes and returns the earliest event.
func (hp *eheap) pop() *Event {
	root := (*hp)[0]
	hp.remove(0)
	return root
}

// remove removes the event at heap index i.
func (hp *eheap) remove(i int) {
	h := *hp
	n := len(h) - 1
	ev := h[i]
	last := h[n]
	h[n] = nil
	*hp = h[:n]
	if i < n {
		h[i] = last
		if !hp.siftDown(i) {
			hp.siftUp(i)
		}
	}
	ev.index = idxFired
}

// siftUp moves the event at index i toward the root until its parent is not
// later than it.
func (hp eheap) siftUp(i int) {
	ev := hp[i]
	for i > 0 {
		p := (i - 1) >> 2
		par := hp[p]
		if !eventLess(ev, par) {
			break
		}
		hp[i] = par
		par.index = int32(i)
		i = p
	}
	hp[i] = ev
	ev.index = int32(i)
}

// siftDown moves the event at index i toward the leaves, swapping with its
// earliest child while that child sorts before it. It reports whether the
// event moved.
func (hp eheap) siftDown(i0 int) bool {
	n := len(hp)
	i := i0
	ev := hp[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		// Earliest of the up-to-four children.
		m, mc := c, hp[c]
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(hp[j], mc) {
				m, mc = j, hp[j]
			}
		}
		if !eventLess(mc, ev) {
			break
		}
		hp[i] = mc
		mc.index = int32(i)
		i = m
	}
	hp[i] = ev
	ev.index = int32(i)
	return i > i0
}
