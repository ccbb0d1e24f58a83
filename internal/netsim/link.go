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
	Enqueued  int64 // packets accepted into the queue (or straight to the wire)
	Delivered int64 // packets that finished serialization and were handed on
	Dropped   int64 // packets lost to drop-tail overflow or link failure
	TxBytes   int64 // bytes fully serialized onto the wire
	PeakQueue int   // high-water mark of queue occupancy (excluding in-flight)
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
// A packet offered to an idle transmitter costs one scheduler event: transmit
// books the whole hop — serialization until freeAt, then the propagation
// delay — and schedules the delivery at once. Only a packet that has to wait
// behind a busy transmitter adds a second event, the drain that starts it.
//
// The forwarding hot path is allocation-free: the drain and delivery
// callbacks are bound once per link at construction, the waiting queue and
// the propagation pipeline are rings that grow only when full — so a link
// that never idles holds at most QueueLimit waiting and a bandwidth-delay
// product in flight, however long it runs — and pooled packets move through
// on reference counts instead of garbage.
type Link struct {
	// The first 248 bytes are everything Send, transmit and deliverHead read
	// for a packet that meets no outage and no full queue, side by side so a
	// hop touches four cache lines of its link instead of all six
	// (TestLinkHotLayout pins it). Configuration and outage state follow.

	// sched owns the transmitter side (Send/transmit/drain run in From's
	// context); dsched carries the delivery schedule to the receiving side;
	// recvSched is the receiving context itself (its clock is the one probes
	// must read at delivery). All three are the network engine until
	// Partition rebinds them, and dsched differs from recvSched only on a
	// partition-boundary link, where it is a cross-shard channel.
	sched sim.Scheduler
	// freeAt is when the transmitter finishes the packet it is serializing
	// (txSize bytes); the link is busy while now < freeAt. drainEv is the
	// one event armed at freeAt while the queue is non-empty.
	freeAt sim.Time
	// down marks a failed link: everything it is asked to carry is
	// dropped until SetUp. The delivery events of in-flight packets SetDown
	// discarded still fire, and deliverHead swallows them: orphans counts
	// the ones still to come, squelch + len(aborted), so a link that never
	// failed pays one compare.
	down    bool
	Policy  DropPolicy
	orphans int32
	// queue holds the packets waiting behind the transmitter, at most
	// QueueLimit of them.
	queue     pktRing
	stats     LinkStats
	Bandwidth float64 // bits per second
	Delay     sim.Time
	txSize    int
	// mu guards inflight on partition-boundary links, where the
	// transmitting shard pushes and the receiving shard pops concurrently.
	// nil everywhere else: single-shard links never pay for it.
	mu *sync.Mutex
	// inflight holds the packets on the link from the start of their
	// serialization to their delivery, in delivery order (per-link delivery
	// times are strictly increasing, so FIFO holds): at most the link's
	// bandwidth-delay product plus the one being serialized.
	inflight pktRing
	dsched   sim.Scheduler
	// Bound once in addLink so the per-hop Schedule calls allocate no
	// closures.
	deliverFn func()
	to        *Node // net.nodes[To]
	probes    []Probe
	net       *Network

	From, To   NodeID
	QueueLimit int
	drainEv    sim.Handle
	drainFn    func()
	// squelch counts the orphaned delivery events whose packet had left the
	// transmitter: they all fire before anything sent later can arrive.
	// aborted holds the due times of those whose packet was still on it: a
	// shorter packet sent after the repair overtakes them, so they are
	// matched by time, not by count.
	squelch   int
	aborted   []sim.Time
	recvSched sim.Scheduler
}

// NowTx returns the transmitting side's current time: the clock Send-path
// probe callbacks (Enqueue, Drop) must read.
func (l *Link) NowTx() sim.Time { return l.sched.Now() }

// NowRx returns the receiving side's current time: the clock delivery-path
// probe callbacks must read.
func (l *Link) NowRx() sim.Time { return l.recvSched.Now() }

// Stats returns a copy of the link's counters. transmit books a packet as
// Delivered when its serialization starts; the copy is net of the packet
// still being serialized, so it reads as if counted when the last bit left.
func (l *Link) Stats() LinkStats {
	s := l.stats
	if l.Busy() {
		s.Delivered--
		s.TxBytes -= int64(l.txSize)
	}
	return s
}

// QueueLen returns the number of packets waiting (not counting the one being
// serialized).
func (l *Link) QueueLen() int { return l.queue.n }

// Busy reports whether a packet is currently being serialized.
func (l *Link) Busy() bool { return l.sched.Now() < l.freeAt }

// Attach registers a probe observing this link's packet events.
func (l *Link) Attach(p Probe) { l.probes = append(l.probes, p) }

// Down reports whether the link is currently failed.
func (l *Link) Down() bool { return l.down }

// Reverse returns the opposite direction of this link's connection
// (To->From), or nil when the connection is asymmetric. Fault injection
// uses it to fail both directions of a physical link together.
func (l *Link) Reverse() *Link { return l.to.LinkTo(l.From) }

// SetDown fails the link. Everything the link is asked to carry while down
// is dropped: the waiting queue and the propagation pipeline are discarded
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

// dropCarried discards everything the link is currently carrying: queued
// packets and the in-flight pipeline, from the packet mid-serialization to
// those riding the propagation delay. Each loss is counted and announced
// like a queue drop.
func (l *Link) dropCarried() {
	for l.queue.n > 0 {
		p := l.queue.pop()
		l.drop(p)
		p.unref()
	}
	l.sched.Cancel(l.drainEv)
	orphaned := l.inflight.n // delivery events left to fire
	for l.inflight.n > 0 {
		p := l.inflight.pop()
		// transmit counted these Delivered; move them to Dropped so the
		// ledger reflects that they never reached the far end.
		l.stats.Delivered--
		l.drop(p)
		p.unref()
	}
	if l.Busy() {
		// The newest of them was still being serialized: its bytes never
		// made it onto the wire, its delivery event is matched by time, and
		// the transmitter is idle from this instant.
		l.stats.TxBytes -= int64(l.txSize)
		orphaned--
		l.aborted = append(l.aborted, l.freeAt+l.Delay)
		l.freeAt = l.sched.Now()
	}
	l.squelch += orphaned
	l.orphans = int32(l.squelch + len(l.aborted))
}

// ResetStats zeroes the counters (used between measurement intervals). A
// packet mid-serialization stays booked, so it counts once it finishes.
func (l *Link) ResetStats() {
	l.stats = LinkStats{}
	if l.Busy() {
		l.stats.Delivered, l.stats.TxBytes = 1, int64(l.txSize)
	}
}

func (l *Link) String() string {
	return fmt.Sprintf("link %d->%d %.0fbps %v", l.From, l.To, l.Bandwidth, l.Delay)
}

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
	l.noteDrop(p)
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

// Send offers a packet to the link. If the transmitter is idle — nothing
// queued and the last serialization over — the packet goes straight to the
// wire; otherwise it queues, and when the queue is at its limit the Policy
// picks the victim: the arrival (drop-tail) or the highest-layer packet in
// queue (priority dropping). An accepted packet holds one reference until
// the link delivers (or drops) it. A down link accepts nothing: the packet
// is dropped on arrival.
func (l *Link) Send(p *Packet) {
	if l.down {
		l.drop(p)
		return
	}
	if now := l.sched.Now(); l.QueueLen() == 0 && now >= l.freeAt {
		l.stats.Enqueued++
		p.ref()
		l.noteEnqueue(p)
		l.transmit(p, now)
		return
	}
	if l.QueueLen() >= l.QueueLimit {
		victim := p
		if l.Policy == DropPriority {
			// Highest layer among queued packets and the arrival loses;
			// ties favour dropping the arrival (cheapest).
			var slot **Packet
			for i := 0; i < l.queue.n; i++ {
				if q := l.queue.at(i); (*q).Layer > victim.Layer {
					victim, slot = *q, q
				}
			}
			if slot != nil {
				// Replace the queued victim with the arrival; the victim's
				// Enqueued count (and queue reference) transfer to the
				// arrival, which delivers in its place.
				*slot = p
				p.ref()
				l.drop(victim)
				victim.unref()
				return
			}
		}
		l.drop(victim)
		return
	}
	l.stats.Enqueued++
	p.ref()
	l.noteEnqueue(p)
	l.queue.push(p)
	qlen := l.QueueLen()
	if qlen == 1 {
		l.drainEv = l.sched.At(l.freeAt, l.drainFn)
	}
	if qlen > l.stats.PeakQueue {
		l.stats.PeakQueue = qlen
	}
}

// transmit starts serializing p at now (the transmitter is idle) and books
// the rest of the hop: the link is busy until freeAt, and the delivery fires
// one propagation delay after that. The delivery event takes its tie-break
// sequence here, when serialization starts.
func (l *Link) transmit(p *Packet, now sim.Time) {
	tx := sim.TransmitTime(p.Size, l.Bandwidth)
	l.freeAt = now + tx
	l.txSize = p.Size
	l.stats.Delivered++
	l.stats.TxBytes += int64(p.Size)
	if l.mu != nil {
		l.mu.Lock()
		l.inflight.push(p)
		l.mu.Unlock()
	} else {
		l.inflight.push(p)
	}
	l.dsched.Schedule(tx+l.Delay, l.deliverFn)
}

// drain fires at freeAt while packets wait: the transmitter has just gone
// idle, so the head of the queue goes on the wire, and the event re-arms
// behind it for as long as the queue is non-empty.
func (l *Link) drain() {
	l.transmit(l.queue.pop(), l.freeAt)
	if l.QueueLen() > 0 {
		l.drainEv = l.sched.At(l.freeAt, l.drainFn)
	}
}

// deliverHead hands the oldest in-flight packet to the receiving node and
// drops the link's reference to it. Per-link delivery times are strictly
// increasing (every serialization takes at least a microsecond), so
// deliveries complete in exactly the order transmit pushed them.
func (l *Link) deliverHead() {
	if l.orphans > 0 && l.orphanDueNow() {
		return
	}
	var p *Packet
	if l.mu != nil {
		l.mu.Lock()
		p = l.inflight.pop()
		l.mu.Unlock()
	} else {
		p = l.inflight.pop()
	}
	l.noteDeliver(p)
	l.to.deliver(p, l)
	p.unref()
}

// orphanDueNow reports whether this delivery firing belongs to an in-flight
// packet a SetDown discarded, and forgets it if so: a serialization it
// aborted, matched by due time (a live packet due the same microsecond has a
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
// capacity is bounded by the most packets it ever held at once.
type pktRing struct {
	buf  []*Packet
	head int // slot of the oldest packet
	n    int // packets held
}

// at returns the slot of the i-th oldest packet.
func (r *pktRing) at(i int) **Packet { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *pktRing) push(p *Packet) {
	if r.n == len(r.buf) {
		// Full (or never used): unwrap into an array twice the size.
		buf := make([]*Packet, max(4, 2*len(r.buf)))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	*r.at(r.n) = p
	r.n++
}

// pop removes and returns the oldest packet; the ring must not be empty.
func (r *pktRing) pop() *Packet {
	slot := r.at(0)
	p := *slot
	*slot = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}
