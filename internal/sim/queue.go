package sim

import (
	"fmt"
	"math"
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

// trainWays is how many instants schedule remembers the newest event of. Two,
// because a fan-out burst alternates between this level's arrivals and the
// next level's deliveries: with one way 63 % of tree1k-agg's events chain,
// with two 94 %, with four 94 % (tree1k-churn 65/82/83 %, tree10k-flat
// 44/46/47 %, paperB16-vbr 9/12/12 %).
const trainWays = 2

// postCap is how many Actions one post record holds: the fan-out of one
// instant that shares one queue slot. A full record starts a new slot. With
// 8, 65.8 % of tree1k-agg's link deliveries join a slot, against about 75 %
// with no limit (DESIGN.md §5 records the sweep).
const postCap = 8

// postChunk is how many post records the queue carves in its first
// allocation of them; each later one carves as many as all before it, so a
// run that needs thousands of records at once (10^4 deliveries due at one
// instant) makes a handful of allocations.
const postChunk = 64

// postRec is the record behind a slot that posts share: their Actions in
// post order. A slot's first post is an ordinary event whose act is that
// post's Action; when a second joins, a record takes the Action over and
// the event's act becomes the record, so a slot nobody joins costs no
// record. next is the index of the Action to fire next; the slot stays
// queued, keyed by that Action's sequence number, until the last one fires.
type postRec struct {
	n, next int32    // first, so they share a line with the first Actions
	free    *postRec // the next record on the queue's free list
	acts    [postCap]Action
}

func (*postRec) Fire() { panic("sim: a post record fired as an Action") }

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
// When near runs dry, head moves cur to the next non-empty bucket and pushes
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
// A post (an uncancellable schedule) may share a slot: when the newest
// event in the queue is a post for the same instant and nothing has taken a
// sequence number since, the new post's Action joins that event's slot,
// held in a postRec, under the next sequence number. Nothing else can sort
// between the two, so firing the slot's Actions in post order from its one
// queue entry is (time, sequence) order. nextPost hands the Actions out one
// at a time and leaves the slot at the root, keyed by its next Action's
// number, until the last one has been taken.
//
// A free list recycles fired or cancelled Event slots so the steady-state
// schedule/fire cycle performs no allocations; slots the free list cannot
// supply are carved from eventSlab-sized arrays, so a burst of new events
// (a world's start-up timers) costs one allocation per slab and its slots
// sit side by side. The free list is intrusive, linked through Event.next
// (a free slot is in no bucket list), so releasing never allocates. Post
// records are carved in chunks that double and are recycled through an
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
	n         int              // events queued, leaders and members
	cur       int64            // current bucket; only ever advances
	tails     [trainWays]struct {
		at   Time
		tail Handle // newest event scheduled for at; a tail only while it is Active
	}
	free *Event  // the free list, linked through Event.next
	slab []Event // slots of the newest slab not handed out yet
	seq  uint64

	// posted is the newest post's slot and postEnd the sequence number
	// after its last Action: a post may join it while posted is Active and
	// seq is still postEnd.
	posted   Handle
	postEnd  uint64
	recFree  *postRec
	recChunk []postRec // records of the newest chunk not handed out yet
	recMade  int       // records carved so far

	// Every event keyed before (doneAt, doneSeq) has fired: the last fired
	// action's key plus one, or (t, MaxUint64) once a run has completed t.
	doneAt  Time
	doneSeq uint64
	backEnd Time // one past the latest instant a back-dated event was queued for

	slotAllocs uint64 // Event structs ever handed out fresh (slots, not slabs)
	slotReuses uint64 // acquisitions served from the free list
	chained    uint64 // schedules that joined a train instead of a tier, posts that joined a slot included
	coalesced  uint64 // posts that joined a slot
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

// post queues a at t like schedule, with no handle: into the newest post's
// slot when that is for t, still queued, not full, and nothing has been
// scheduled or reserved since. A joined Action counts as queued and as
// chained, since schedule would have linked it behind that slot's train.
func (q *equeue) post(t Time, a Action) {
	if h := q.posted; q.seq == q.postEnd && h.Active() && h.ev.at == t {
		ev := h.ev
		r, ok := ev.act.(*postRec)
		if !ok {
			r = q.newRec()
			r.acts[0], r.n, r.next = ev.act, 1, 0
			ev.act = r
		}
		if r.n < postCap {
			r.acts[r.n] = a
			r.n++
			q.seq++
			q.postEnd++
			q.n++
			q.chained++
			q.coalesced++
			return
		}
	}
	q.posted = q.schedule(t, a)
	q.postEnd = q.seq
}

// newRec takes a post record off the free list, or carves one.
func (q *equeue) newRec() *postRec {
	if r := q.recFree; r != nil {
		q.recFree = r.free
		return r
	}
	if len(q.recChunk) == 0 {
		n := max(postChunk, q.recMade)
		q.recChunk = make([]postRec, n)
		q.recMade += n
	}
	r := &q.recChunk[0]
	q.recChunk = q.recChunk[1:]
	return r
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

// head returns the earliest event without removing it, or nil. It may
// advance the current bucket past an idle gap; a later push into a bucket
// already passed simply joins the near heap.
func (q *equeue) head() *Event {
	if len(q.near) == 0 && !q.advance() {
		return nil
	}
	return q.near[0]
}

// nextPost takes the next Action of slot ev, the queue's head, from its
// record. While others remain the slot stays at the root, keyed by the one
// after it: nothing an Action does can put an event before it there, since
// anything new for its instant takes a later sequence number and a
// back-dated key before it has gone by. The last one pops the slot and
// frees the record.
func (q *equeue) nextPost(ev *Event, r *postRec) (Action, bool) {
	a := r.acts[r.next]
	r.acts[r.next] = nil
	if r.next++; r.next < r.n {
		q.n--
		q.doneAt, q.doneSeq = ev.at, ev.seq+1
		ev.seq++
		return a, true
	}
	r.free, q.recFree = q.recFree, r
	q.pop(ev)
	return a, false
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
// ring bucket (or, with the ring empty, jumps to far's earliest bucket),
// pushes that bucket's leaders onto near, and pulls far events that the new
// horizon now covers into the ring. It reports false when nothing is queued.
func (q *equeue) advance() bool {
	b := q.cur + 1
	switch {
	case q.ringN > 0:
		for q.ring[b&ringMask] == nil {
			b++
		}
	case len(q.far) > 0:
		b = bucketOf(q.far[0])
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
	return true
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
