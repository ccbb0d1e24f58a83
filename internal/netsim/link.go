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
// The forwarding hot path is allocation-free: the serialization-done and
// delivery callbacks are bound once per link at construction, the waiting
// queue and the propagation pipeline are head-indexed slices whose backing
// arrays are reused, and pooled packets move through on reference counts
// instead of garbage.
type Link struct {
	net        *Network
	From, To   NodeID
	Bandwidth  float64 // bits per second
	Delay      sim.Time
	QueueLimit int
	Policy     DropPolicy

	// queue[qhead:] holds the packets waiting behind the transmitter.
	queue []*Packet
	qhead int
	busy  bool
	// txp is the packet currently being serialized (valid while busy).
	txp *Packet
	// inflight[ifhead:] holds serialized packets riding the propagation
	// delay, in arrival order (the delay is constant, so FIFO holds).
	inflight []*Packet
	ifhead   int

	// down marks a failed link: everything it is asked to carry is
	// dropped until SetUp. squelch counts delivery events already
	// scheduled for in-flight packets that SetDown discarded; deliverHead
	// swallows that many firings instead of indexing an emptied pipeline.
	down    bool
	squelch int

	stats  LinkStats
	probes []Probe

	// Bound once in addLink so the per-hop Schedule calls allocate no
	// closures.
	txDoneFn  func()
	deliverFn func()
	deliver   func(*Packet, *Link)

	// sched owns the transmitter side (Send/transmit/txDone run in From's
	// context); dsched carries the delivery schedule to the receiving side;
	// recvSched is the receiving context itself (its clock is the one probes
	// must read at delivery). All three are the network engine until
	// Partition rebinds them, and dsched differs from recvSched only on a
	// partition-boundary link, where it is a cross-shard channel.
	sched     sim.Scheduler
	dsched    sim.Scheduler
	recvSched sim.Scheduler
	// mu guards inflight/ifhead on partition-boundary links, where the
	// transmitting shard pushes and the receiving shard pops concurrently.
	// nil everywhere else: single-shard links never pay for it.
	mu *sync.Mutex
}

// NowTx returns the transmitting side's current time: the clock Send-path
// probe callbacks (Enqueue, Drop) must read.
func (l *Link) NowTx() sim.Time { return l.sched.Now() }

// NowRx returns the receiving side's current time: the clock delivery-path
// probe callbacks must read.
func (l *Link) NowRx() sim.Time { return l.recvSched.Now() }

// Stats returns a copy of the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }

// QueueLen returns the number of packets waiting (not counting the one being
// serialized).
func (l *Link) QueueLen() int { return len(l.queue) - l.qhead }

// Busy reports whether a packet is currently being serialized.
func (l *Link) Busy() bool { return l.busy }

// Attach registers a probe observing this link's packet events.
func (l *Link) Attach(p Probe) { l.probes = append(l.probes, p) }

// Down reports whether the link is currently failed.
func (l *Link) Down() bool { return l.down }

// Reverse returns the opposite direction of this link's connection
// (To->From), or nil when the connection is asymmetric. Fault injection
// uses it to fail both directions of a physical link together.
func (l *Link) Reverse() *Link { return l.net.nodes[l.To].LinkTo(l.From) }

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
// packets, the packet mid-serialization, and serialized packets riding the
// propagation delay. Each loss is counted and announced like a queue drop.
func (l *Link) dropCarried() {
	for i := l.qhead; i < len(l.queue); i++ {
		p := l.queue[i]
		l.queue[i] = nil
		l.stats.Dropped++
		l.noteDrop(p)
		p.unref()
	}
	l.queue = l.queue[:0]
	l.qhead = 0
	if l.txp != nil {
		// Abort the serialization in progress. The already-scheduled
		// txDone still fires; it finds txp nil and just advances the
		// transmitter.
		p := l.txp
		l.txp = nil
		l.stats.Dropped++
		l.noteDrop(p)
		p.unref()
	}
	for i := l.ifhead; i < len(l.inflight); i++ {
		p := l.inflight[i]
		l.inflight[i] = nil
		// These finished serialization and were counted Delivered in
		// txDone; move them to Dropped so the ledger reflects that they
		// never reached the far end.
		l.stats.Delivered--
		l.stats.Dropped++
		l.squelch++
		l.noteDrop(p)
		p.unref()
	}
	l.inflight = l.inflight[:0]
	l.ifhead = 0
}

// ResetStats zeroes the counters (used between measurement intervals).
func (l *Link) ResetStats() { l.stats = LinkStats{} }

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

// Send offers a packet to the link. If the transmitter is idle the packet
// goes straight to the wire; otherwise it queues, and when the queue is at
// its limit the Policy picks the victim: the arrival (drop-tail) or the
// highest-layer packet in queue (priority dropping). An accepted packet
// holds one reference until the link delivers (or drops) it. A down link
// accepts nothing: the packet is dropped on arrival.
func (l *Link) Send(p *Packet) {
	if l.down {
		l.stats.Dropped++
		l.noteDrop(p)
		return
	}
	if !l.busy {
		l.stats.Enqueued++
		p.ref()
		l.noteEnqueue(p)
		l.transmit(p)
		return
	}
	if l.QueueLen() >= l.QueueLimit {
		victim := p
		if l.Policy == DropPriority {
			// Highest layer among queued packets and the arrival loses;
			// ties favour dropping the arrival (cheapest).
			vIdx := -1
			for i := l.qhead; i < len(l.queue); i++ {
				if q := l.queue[i]; q.Layer > victim.Layer {
					victim, vIdx = q, i
				}
			}
			if vIdx >= 0 {
				// Replace the queued victim with the arrival; the victim's
				// Enqueued count (and queue reference) transfer to the
				// arrival, which delivers in its place.
				l.queue[vIdx] = p
				p.ref()
				l.stats.Dropped++
				l.noteDrop(victim)
				victim.unref()
				return
			}
		}
		l.stats.Dropped++
		l.noteDrop(victim)
		return
	}
	l.stats.Enqueued++
	p.ref()
	l.noteEnqueue(p)
	l.queue = append(l.queue, p)
	if qlen := l.QueueLen(); qlen > l.stats.PeakQueue {
		l.stats.PeakQueue = qlen
	}
}

// transmit starts serializing p; txDone fires when the last bit is on the
// wire.
func (l *Link) transmit(p *Packet) {
	l.busy = true
	l.txp = p
	l.sched.Schedule(sim.TransmitTime(p.Size, l.Bandwidth), l.txDoneFn)
}

// txDone finishes serialization: the packet enters the propagation pipeline
// and the transmitter moves on to the next queued packet.
func (l *Link) txDone() {
	p := l.txp
	if p == nil {
		// The serialization was aborted by SetDown; just advance the
		// transmitter (the queue is normally empty here, but packets may
		// have queued if the link came back up mid-abort).
		if l.qhead < len(l.queue) {
			next := l.queue[l.qhead]
			l.queue[l.qhead] = nil
			l.qhead++
			if l.qhead == len(l.queue) {
				l.queue = l.queue[:0]
				l.qhead = 0
			}
			l.transmit(next)
		} else {
			l.busy = false
		}
		return
	}
	l.txp = nil
	l.stats.Delivered++
	l.stats.TxBytes += int64(p.Size)
	if l.mu != nil {
		l.mu.Lock()
		l.inflight = append(l.inflight, p)
		l.mu.Unlock()
	} else {
		l.inflight = append(l.inflight, p)
	}
	l.dsched.Schedule(l.Delay, l.deliverFn)
	if l.qhead < len(l.queue) {
		next := l.queue[l.qhead]
		l.queue[l.qhead] = nil
		l.qhead++
		if l.qhead == len(l.queue) {
			l.queue = l.queue[:0]
			l.qhead = 0
		}
		l.transmit(next)
	} else {
		l.busy = false
	}
}

// deliverHead hands the oldest in-flight packet to the receiving node and
// drops the link's reference to it. Propagation delay is constant per link,
// so deliveries complete in exactly the order txDone pushed them.
func (l *Link) deliverHead() {
	if l.squelch > 0 {
		// This firing belonged to an in-flight packet a SetDown discarded.
		l.squelch--
		return
	}
	var p *Packet
	if l.mu != nil {
		l.mu.Lock()
		p = l.popInflight()
		l.mu.Unlock()
	} else {
		p = l.popInflight()
	}
	l.noteDeliver(p)
	l.deliver(p, l)
	p.unref()
}

// popInflight removes and returns the oldest in-flight packet. Boundary
// links call it under l.mu.
func (l *Link) popInflight() *Packet {
	p := l.inflight[l.ifhead]
	l.inflight[l.ifhead] = nil
	l.ifhead++
	if l.ifhead == len(l.inflight) {
		l.inflight = l.inflight[:0]
		l.ifhead = 0
	}
	return p
}
