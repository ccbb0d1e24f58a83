package netsim

import (
	"fmt"
	"sync"

	"toposense/internal/sim"
)

// DefaultQueueLimit is the drop-tail queue capacity in packets, matching the
// ns-2 default DropTail queue length the paper's simulations used.
const DefaultQueueLimit = 20

// DropPolicy selects what a full queue discards.
type DropPolicy uint8

const (
	// DropTail discards the arriving packet — the paper's policy ("a
	// drop-tail policy was used at all nodes").
	DropTail DropPolicy = iota
	// DropPriority discards the queued or arriving packet with the highest
	// layer number, protecting base layers — the router-based priority
	// dropping of Bajaj/Breslau/Shenker that the paper cites as effective
	// but hard to deploy. Non-media packets (control) count as layer 0 and
	// are therefore protected.
	DropPriority
)

// LinkStats accumulates per-link counters for the lifetime of a run.
type LinkStats struct {
	Enqueued  int64 // packets accepted (to wait, or straight to the wire)
	Delivered int64 // packets that finished serialization
	Dropped   int64 // packets lost to drop-tail overflow or link failure
	TxBytes   int64 // bytes fully serialized onto the wire
	PeakQueue int   // high-water mark of the waiting count (excluding the one serializing)
}

// DropRate returns the fraction of offered packets lost on this link.
func (s LinkStats) DropRate() float64 {
	offered := s.Enqueued + s.Dropped
	if offered == 0 {
		return 0
	}
	return float64(s.Dropped) / float64(offered)
}

// Link is a unidirectional channel between two nodes with a fixed bandwidth
// (bits/s), propagation delay, and a drop-tail FIFO queue of queueLimit
// packets. A bidirectional connection is a pair of Links.
//
// Every accepted packet costs one scheduler event. A FIFO transmitter never
// reorders or preempts, so Send books the whole hop at once, whether the
// transmitter is idle or busy: serialization starts at max(now, freeAt),
// freeAt moves to its end, and the delivery is posted for one propagation
// delay after that (sim.Scheduler.Post), so the deliveries a router's links
// post for one instant go one after another into one of the engine's FIFO
// lanes and take no event slot. The
// packets waiting for the transmitter are the newest entries of the one
// in-flight ring: they run back to back and end at freeAt.
//
// The forwarding hot path is allocation-free: the delivery event's Action is
// the link itself (linkDeliver), the in-flight ring grows only when full —
// so a link that never idles holds at most QueueLimit waiting and a
// bandwidth-delay product on the wire, however long it runs — and pooled
// packets move through on reference counts instead of garbage. The ring's
// first two slots are inside the link (pipe), and a ring that empties on a
// pool array gives it back and returns to them, so a link with at most two
// packets aboard owns no ring of its own.
type Link struct {
	// The first cache line is everything deliverHead reads on a
	// single-shard link, and the engine reads its first byte one event
	// ahead (sim.Engine), so a delivery usually finds it cached. The next
	// two lines hold what Send and book add for a packet that meets no
	// outage and no full queue; configuration and outage state follow.
	// Links are carved on cache lines (blocks.go) and TestLinkHotLayout
	// pins the three blocks.

	// inflight holds every booked packet from Send to its delivery, in
	// delivery order (per-link delivery times are strictly increasing, so
	// FIFO holds): at most QueueLimit waiting, the one being serialized and
	// the link's bandwidth-delay product propagating. Its ring starts on
	// pipe, moves to a pool array the first time a third packet is aboard,
	// and comes back when it empties.
	inflight pktRing
	pipe     [2]*Packet
	to       *Node // net.nodes[To]
	// orphans counts the delivery events of packets SetDown discarded
	// that are still to fire, squelch + len(aborted): deliverHead swallows
	// them, so a link that never failed pays one compare.
	orphans int32
	// down marks a failed link: everything it is asked to carry is
	// dropped until SetUp. locked says mu guards the ring (a
	// partition-boundary link), and probed that a probe observes the
	// link (Attach, or Network.AttachProbe before or after the link was
	// made), so an unobserved link reads a flag, not two probe lists.
	down, locked, probed bool

	// sched owns the transmitter side (Send and everything it books run in
	// From's context); dsched carries the delivery schedule to the
	// receiving side; recvSched is the receiving context itself (its clock
	// is the one probes must read at delivery). All three are the network
	// engine until Partition rebinds them, and dsched differs from
	// recvSched only on a partition-boundary link, where it is a
	// cross-shard channel.
	sched, dsched sim.Scheduler
	// freeAt is when the transmitter finishes the last packet booked; the
	// link is busy while now < freeAt.
	freeAt sim.Time
	// waiting and nextStart cache the waiting count: as of the last Send,
	// the ring's newest waiting entries were waiting and the oldest of them
	// starts at nextStart. waitingAt advances it lazily. Only the sending
	// side writes them.
	nextStart sim.Time
	waiting   int32
	// txSize is the size of the packet booked last and txTime its
	// serialization time, sim.TransmitTime(txSize, bandwidth): the memo
	// book reuses while packet sizes repeat.
	txSize int32
	txTime sim.Time
	Delay  sim.Time
	stats  LinkStats
	net    *Network
	// From closes the Send block: the multicast handler's no-echo check
	// reads it on every arrival at a router.
	From NodeID

	To         NodeID
	QueueLimit int
	Policy     DropPolicy
	// mu guards inflight on partition-boundary links (locked), where the
	// transmitting shard pushes and the receiving shard pops concurrently,
	// and the orphan state a DropPriority replacement writes there. nil
	// everywhere else: single-shard links never pay for it.
	mu        *sync.Mutex
	probes    []Probe
	bandwidth float64 // bits per second; fixed at Connect
	// squelch counts the orphaned delivery events whose packet had finished
	// serializing: they all fire before anything sent later can arrive.
	// aborted holds the due times of those whose packet was still
	// serializing or waiting, and of deliveries a DropPriority replacement
	// moved: a shorter packet sent after the repair overtakes them, so they
	// are matched by time, not by count.
	squelch   int
	aborted   []sim.Time
	recvSched sim.Scheduler
	// nextOut chains the links added since the out-link tables were last
	// laid out (Network.seal); nil once they are.
	nextOut *Link
	// The size stays a multiple of 64 (TestLinkHotLayout), so links carved
	// one after another from a block keep their blocks on whole cache
	// lines.
	_ [8]byte
}

// NowTx returns the transmitting side's current time: the clock Send-path
// probe callbacks (Enqueue, Drop) must read.
func (l *Link) NowTx() sim.Time { return l.sched.Now() }

// NowRx returns the receiving side's current time: the clock delivery-path
// probe callbacks must read.
func (l *Link) NowRx() sim.Time { return l.recvSched.Now() }

// Stats returns a copy of the link's counters. Send books a packet as
// Delivered when it accepts it; the copy is net of every booked packet whose
// serialization has not ended, so it reads as if counted when the last bit
// left.
func (l *Link) Stats() LinkStats {
	s := l.stats
	if now := l.sched.Now(); now < l.freeAt {
		n, bytes := l.unfinished(now)
		s.Delivered -= n
		s.TxBytes -= bytes
	}
	return s
}

// QueueLen returns the number of packets waiting at now (not counting the
// one being serialized).
func (l *Link) QueueLen() int {
	w, _ := l.waitingAt(l.sched.Now())
	return int(w)
}

// Busy reports whether a packet is currently being serialized.
func (l *Link) Busy() bool { return l.sched.Now() < l.freeAt }

// Attach registers a probe observing this link's packet events.
func (l *Link) Attach(p Probe) {
	l.probes = append(l.probes, p)
	l.probed = true
}

// Down reports whether the link is currently failed.
func (l *Link) Down() bool { return l.down }

// Reverse returns the opposite direction of this link's connection
// (To->From), or nil when the connection is asymmetric. Fault injection
// uses it to fail both directions of a physical link together.
func (l *Link) Reverse() *Link { return l.to.LinkTo(l.From) }

// SetDown fails the link. Everything the link is asked to carry while down
// is dropped: the waiting packets and the propagation pipeline are discarded
// immediately, the packet being serialized is aborted, and later Send calls
// lose their packet on arrival. Unicast routing recomputes around the
// failed link and route-change listeners (Network.OnRouteChange) are
// notified synchronously, so the multicast layer can repair its trees.
func (l *Link) SetDown() {
	if l.down {
		return
	}
	// Materialize the pre-change dense routing tables while the link is
	// still up, so the recomputation below can report exactly what changed.
	// (Tree-mode routing cannot diff columns, so fault injection pins the
	// network to dense tables.)
	l.net.ensureDenseRoutes()
	l.down = true
	l.dropCarried()
	l.net.linkStateChanged(l, true)
}

// SetUp repairs a failed link. Routing recomputes and route-change
// listeners are notified, exactly as for SetDown. The transmitter restarts
// idle: traffic the outage discarded is gone for good, as on a real link.
func (l *Link) SetUp() {
	if !l.down {
		return
	}
	l.net.ensureDenseRoutes()
	l.down = false
	l.net.linkStateChanged(l, false)
}

// dropCarried discards everything the link is carrying: the waiting packets,
// the one being serialized and those riding the propagation delay. Each loss
// is counted and announced like a queue drop, the waiting packets first.
// The discarded packets' deliveries are already posted: those that finished
// serializing are squelched by count, the rest matched by due time.
func (l *Link) dropCarried() {
	now := l.sched.Now()
	n := int(l.inflight.n)
	w, _ := l.waitingAt(now)
	for i := n - int(w); i < n; i++ {
		l.drop(*l.inflight.at(i))
	}
	done := n
	if now < l.freeAt {
		// The newest packets had not finished serializing: their bytes never
		// made it onto the wire, and the transmitter is idle from this
		// instant.
		end := l.freeAt
		for i := n - 1; i >= 0 && end > now; i-- {
			p := *l.inflight.at(i)
			l.stats.TxBytes -= int64(p.Size)
			l.aborted = append(l.aborted, end+l.Delay)
			end -= l.txOf(p.Size)
			done--
		}
		l.freeAt = now
	}
	for i := 0; l.inflight.n > 0; i++ {
		p := l.inflight.pop()
		// Send counted these Delivered; move them to Dropped so the ledger
		// reflects that they never reached the far end.
		l.stats.Delivered--
		if i < n-int(w) {
			l.drop(p)
		}
		p.unref()
	}
	l.giveBack()
	l.waiting = 0
	l.squelch += done
	l.orphans = int32(l.squelch + len(l.aborted))
}

// ResetStats zeroes the counters (used between measurement intervals).
// Booked packets whose serialization has not ended stay booked, so they
// count once they finish.
func (l *Link) ResetStats() {
	l.stats = LinkStats{}
	if now := l.sched.Now(); now < l.freeAt {
		l.stats.Delivered, l.stats.TxBytes = l.unfinished(now)
	}
}

func (l *Link) String() string {
	return fmt.Sprintf("link %d->%d %.0fbps %v", l.From, l.To, l.bandwidth, l.Delay)
}

// Bandwidth returns the link's rate in bits per second. It is fixed when
// the link is created, which is what lets book keep its serialization-time
// memo without ever revalidating it.
func (l *Link) Bandwidth() float64 { return l.bandwidth }

// noteEnqueue, noteDrop and noteDeliver show p to the link's probes and
// the network's; callers skip them unless the link is probed.
func (l *Link) noteEnqueue(p *Packet) {
	for _, pr := range l.probes {
		pr.Enqueue(l, p)
	}
	for _, pr := range l.net.probes {
		pr.Enqueue(l, p)
	}
}

// drop books p as lost on this link: counted, shown to the probes, then
// its payload let go (Packet.dropped). The caller still owns the link's
// reference, if it took one.
func (l *Link) drop(p *Packet) {
	l.stats.Dropped++
	if l.probed {
		l.noteDrop(p)
	}
	p.dropped()
}

func (l *Link) noteDrop(p *Packet) {
	for _, pr := range l.probes {
		pr.Drop(l, p)
	}
	for _, pr := range l.net.probes {
		pr.Drop(l, p)
	}
}

func (l *Link) noteDeliver(p *Packet) {
	for _, pr := range l.probes {
		pr.Deliver(l, p)
	}
	for _, pr := range l.net.probes {
		pr.Deliver(l, p)
	}
}

// Send offers a packet to the link. An accepted packet is booked at once:
// it starts serializing when the transmitter frees up (now, if it is idle)
// and its delivery is posted. When QueueLimit packets are already waiting,
// the Policy picks the victim: the arrival (drop-tail) or the highest-layer
// waiting packet (priority dropping). A serialization that ends at now has
// handed the transmitter on before any Send at now, so it frees a waiting
// place at that instant. An accepted packet holds one reference until the
// link delivers (or drops) it. A down link accepts nothing: the packet is
// dropped on arrival.
func (l *Link) Send(p *Packet) {
	if l.down {
		l.drop(p)
		return
	}
	now, start := l.sched.Now(), l.freeAt
	w, next := int32(0), now
	if now < start {
		if w, next = l.waiting, l.nextStart; w > 0 && now >= next {
			w, next = l.waitingAt(now)
		}
		if int(w) >= l.QueueLimit {
			l.waiting, l.nextStart = w, next
			l.overflow(p, now)
			return
		}
		if w == 0 {
			next = start
		}
		if w++; int(w) > l.stats.PeakQueue {
			l.stats.PeakQueue = int(w)
		}
	} else {
		start = now
	}
	l.stats.Enqueued++
	p.ref()
	if l.probed {
		l.noteEnqueue(p) // before the cache counts p: probes see the depth p found
	}
	l.waiting, l.nextStart = w, next
	l.book(p, start, now)
}

// book serializes p from start, moves freeAt to its end, and posts its
// delivery one propagation delay later. The delivery takes its tie-break
// sequence here and is posted: nothing cancels it (an outage orphans it
// instead, see deliverHead). A packet the size of the last one reuses its
// serialization time; only a new size pays TransmitTime, and becomes the
// memo unless it does not fit its 32 bits.
func (l *Link) book(p *Packet, start, now sim.Time) {
	tx := l.txTime
	if p.Size != int(l.txSize) {
		tx = sim.TransmitTime(p.Size, l.bandwidth)
		if s := int32(p.Size); int(s) == p.Size {
			l.txSize, l.txTime = s, tx
		}
	}
	l.freeAt = start + tx
	l.stats.Delivered++
	l.stats.TxBytes += int64(p.Size)
	if l.locked {
		l.mu.Lock()
		l.inflight.push(p, l.net.rings)
		l.mu.Unlock()
	} else {
		l.inflight.push(p, l.net.rings)
	}
	l.dsched.Post(l.freeAt+l.Delay-now, (*linkDeliver)(l))
}

// txOf returns the serialization time of a size-byte packet, from the memo
// when the size matches it.
func (l *Link) txOf(size int) sim.Time {
	if size == int(l.txSize) {
		return l.txTime
	}
	return sim.TransmitTime(size, l.bandwidth)
}

// waitingAt returns the waiting count at now and the start of the oldest
// waiting packet, advancing the cached pair without storing it. Waiting packets run back to back, so each one
// that has started moves the next start on by its own serialization time.
// Once the cached oldest packets have also been delivered (more cached than
// the ring holds), it recounts from the tail instead.
func (l *Link) waitingAt(now sim.Time) (int32, sim.Time) {
	w, next := l.waiting, l.nextStart
	if w == 0 || now < next {
		return w, next
	}
	if now >= l.freeAt {
		return 0, next
	}
	if l.locked {
		l.mu.Lock()
		defer l.mu.Unlock()
	}
	n := l.inflight.n
	if w > n {
		return l.recount(now)
	}
	for ; w > 0 && next <= now; w-- {
		next += l.txOf((*l.inflight.at(int(n - w))).Size)
	}
	return w, next
}

// recount walks back from the newest booked packet, which ends at freeAt,
// over the packets that start after now: each of them waited, so it starts
// where the one before it ends.
func (l *Link) recount(now sim.Time) (w int32, next sim.Time) {
	next = l.freeAt
	for i := int(l.inflight.n) - 1; i >= 0; i-- {
		start := next - l.txOf((*l.inflight.at(i)).Size)
		if start <= now {
			break
		}
		w, next = w+1, start
	}
	return w, next
}

// unfinished returns how many booked packets have not finished serializing
// at now, and their bytes: the newest entries, walked back from freeAt.
func (l *Link) unfinished(now sim.Time) (n, bytes int64) {
	if l.locked {
		l.mu.Lock()
		defer l.mu.Unlock()
	}
	end := l.freeAt
	for i := int(l.inflight.n) - 1; i >= 0 && end > now; i-- {
		p := *l.inflight.at(i)
		n, bytes = n+1, bytes+int64(p.Size)
		end -= l.txOf(p.Size)
	}
	return n, bytes
}

// overflow handles an arrival that finds QueueLimit packets waiting (the
// cache is current). Under DropPriority the highest layer among the waiting
// packets and the arrival loses, ties favouring the arrival (cheapest); a
// waiting victim's place, Enqueued count and reference transfer to the
// arrival, which is delivered in its place.
func (l *Link) overflow(p *Packet, now sim.Time) {
	if l.Policy == DropPriority {
		if l.locked {
			l.mu.Lock()
		}
		victim, vi := p, -1
		n := int(l.inflight.n)
		for i := n - int(l.waiting); i < n; i++ {
			if q := *l.inflight.at(i); q.Layer > victim.Layer {
				victim, vi = q, i
			}
		}
		if vi >= 0 && victim.Size != p.Size {
			l.rebook(vi, p, now)
		} else if vi >= 0 {
			*l.inflight.at(vi) = p
		}
		if l.locked {
			l.mu.Unlock()
		}
		if vi >= 0 {
			l.stats.TxBytes += int64(p.Size - victim.Size) // booked at Send
			p.ref()
			l.drop(victim)
			victim.unref()
			return
		}
	}
	l.drop(p)
}

// rebook puts p in the waiting entry i in place of a packet of another size,
// which shifts every later waiting packet's start: their posted deliveries
// are orphaned by due time and posted again at the new times. The waiting
// count and the oldest waiting start do not change.
func (l *Link) rebook(i int, p *Packet, now sim.Time) {
	n := int(l.inflight.n)
	end := l.freeAt
	for k := n - 1; k >= i; k-- {
		l.aborted = append(l.aborted, end+l.Delay)
		end -= l.txOf((*l.inflight.at(k)).Size)
	}
	*l.inflight.at(i) = p
	for k := i; k < n; k++ {
		end += l.txOf((*l.inflight.at(k)).Size)
		l.dsched.Post(end+l.Delay-now, (*linkDeliver)(l))
	}
	l.freeAt = end
	l.orphans = int32(l.squelch + len(l.aborted))
}

// linkDeliver is a link's delivery event: it fires deliverHead.
type linkDeliver Link

func (d *linkDeliver) Fire() { (*Link)(d).deliverHead() }

// deliverHead hands the oldest booked packet to the receiving node and
// drops the link's reference to it. Per-link delivery times are strictly
// increasing (every serialization takes at least a microsecond), so
// deliveries complete in exactly the order Send booked them. On a
// single-shard link that never failed and has no probe, it reads nothing
// of the link beyond its first cache line.
func (l *Link) deliverHead() {
	var p *Packet
	if l.locked {
		l.mu.Lock()
		if l.orphans > 0 && l.orphanDueNow() {
			l.mu.Unlock()
			return
		}
		p = l.inflight.pop()
		if l.inflight.n == 0 {
			l.giveBack()
		}
		l.mu.Unlock()
	} else {
		if l.orphans > 0 && l.orphanDueNow() {
			return
		}
		p = l.inflight.pop()
		if l.inflight.n == 0 {
			l.giveBack()
		}
	}
	if l.probed {
		l.noteDeliver(p)
	}
	l.to.deliver(p, l)
	p.unref()
}

// giveBack returns an emptied ring's pool array to the network's ring pool
// and puts the ring back on the link's inline pair.
func (l *Link) giveBack() {
	if len(l.inflight.buf) >= minRing {
		l.net.rings.Put(l.inflight.buf)
		l.inflight.buf, l.inflight.head = l.pipe[:], 0
	}
}

// orphanDueNow reports whether this delivery firing belongs to a packet a
// SetDown discarded or a DropPriority replacement moved, and forgets it if
// so: one matched by due time (a live packet due the same microsecond has a
// firing of its own, so either may stand for it), else the oldest squelched
// one.
func (l *Link) orphanDueNow() bool {
	now := l.recvSched.Now()
	for i, due := range l.aborted {
		if due == now {
			l.aborted = append(l.aborted[:i], l.aborted[i+1:]...)
			l.orphans--
			return true
		}
	}
	if l.squelch > 0 {
		l.squelch--
		l.orphans--
		return true
	}
	return false
}

// pktRing is a FIFO of packets on a power-of-two backing array that is
// reused in place and doubles only when every slot is occupied, so its
// capacity is bounded by the most packets it ever held at once. A ring may
// start on an array its owner holds (a link's pipe); the first doubling
// moves it onto an array from the network's ring pool, and every later one
// gives the outgrown array back to that pool (a link gives back the last one
// too, whenever its ring empties). Pool arrays have at least minRing slots,
// so a shorter one is its owner's and is never filed.
type pktRing struct {
	buf  []*Packet
	head int32 // slot of the oldest packet
	n    int32 // packets held
}

// minRing is the smallest array a ring takes from the pool.
const minRing = 4

// at returns the slot of the i-th oldest packet.
func (r *pktRing) at(i int) **Packet { return &r.buf[(int(r.head)+i)&(len(r.buf)-1)] }

// push appends p, growing the ring from pool when it is full.
func (r *pktRing) push(p *Packet, pool *sim.ArrayPool[*Packet]) {
	if int(r.n) == len(r.buf) {
		// Full (or never used): unwrap into an array twice the size.
		c := max(minRing, 2*len(r.buf))
		buf := pool.Get(c)[:c]
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		if len(r.buf) >= minRing {
			pool.Put(r.buf)
		}
		r.buf, r.head = buf, 0
	}
	*r.at(int(r.n)) = p
	r.n++
}

// pop removes and returns the oldest packet; the ring must not be empty.
func (r *pktRing) pop() *Packet {
	slot := r.at(0)
	p := *slot
	*slot = nil
	r.head = (r.head + 1) & int32(len(r.buf)-1)
	r.n--
	return p
}
