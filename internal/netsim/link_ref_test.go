package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"toposense/internal/sim"
)

// refLink is the two-event link the one-event Link replaced, kept as the
// reference model: every packet waits in a queue of its own, costs a txDone
// event when its serialization ends and a deliver event one propagation
// delay later, the transmitter is a busy flag, and counters move when the
// events fire. Send, transmit, txDone and the delivery are the old link's
// line for line, less the reference counting and the boundary-link mutex,
// with a probe hook in place of the Probe lists. Two things are deliberately
// not the old code. Each event carries its packet and the outage epoch it
// was scheduled in, so setDown invalidates what it discards by bumping the
// epoch and the transmitter is idle at once (the old link counted anonymous
// events instead and stayed busy until the aborted txDone fired: the ghost
// serialization TestSetUpInsideAbortedSerialization pins as fixed). And
// settle applies the tie rule the old link left to sequence numbers: a
// serialization that ends at t hands the transmitter on before any
// operation at t, whatever order the instant's events fire in.
type refLink struct {
	e          *sim.Engine
	bandwidth  float64
	delay      sim.Time
	queueLimit int
	policy     DropPolicy

	queue    []*Packet
	busy     bool
	txp      *Packet  // packet being serialized (valid while busy)
	txEnd    sim.Time // when its txDone fires
	txGen    int      // bumped by every transmit: a txDone of another is stale
	inflight []*Packet
	down     bool
	epoch    int // bumped by setDown
	stats    LinkStats

	note func(kind probeKind, p *Packet)
	tick func() // called first thing in every event
}

func (l *refLink) send(p *Packet) {
	if l.down {
		l.stats.Dropped++
		l.note(probeDrop, p)
		return
	}
	if !l.busy {
		l.stats.Enqueued++
		l.note(probeEnqueue, p)
		l.transmit(p)
		return
	}
	if len(l.queue) >= l.queueLimit {
		victim := p
		if l.policy == DropPriority {
			vIdx := -1
			for i, q := range l.queue {
				if q.Layer > victim.Layer {
					victim, vIdx = q, i
				}
			}
			if vIdx >= 0 {
				l.queue[vIdx] = p
				l.stats.Dropped++
				l.note(probeDrop, victim)
				return
			}
		}
		l.stats.Dropped++
		l.note(probeDrop, victim)
		return
	}
	l.stats.Enqueued++
	l.note(probeEnqueue, p)
	l.queue = append(l.queue, p)
	if len(l.queue) > l.stats.PeakQueue {
		l.stats.PeakQueue = len(l.queue)
	}
}

func (l *refLink) transmit(p *Packet) {
	l.busy = true
	l.txp = p
	tx := sim.TransmitTime(p.Size, l.bandwidth)
	l.txEnd = l.e.Now() + tx
	l.txGen++
	gen := l.txGen
	l.e.Schedule(tx, func() { l.txDone(gen) })
}

func (l *refLink) txDone(gen int) {
	l.tick()
	if gen != l.txGen || l.txp == nil {
		return // settled early, or aborted by setDown
	}
	l.finish()
}

// settle is the tie rule: an operation at the very instant a serialization
// ends runs after that serialization's txDone.
func (l *refLink) settle() {
	if l.txp != nil && l.txEnd == l.e.Now() {
		l.finish()
	}
}

func (l *refLink) finish() {
	p, epoch := l.txp, l.epoch
	l.txp = nil
	l.stats.Delivered++
	l.stats.TxBytes += int64(p.Size)
	l.inflight = append(l.inflight, p)
	l.e.Schedule(l.delay, func() { l.deliver(p, epoch) })
	if len(l.queue) > 0 {
		next := l.queue[0]
		l.queue = l.queue[1:]
		l.transmit(next)
	} else {
		l.busy = false
	}
}

func (l *refLink) deliver(p *Packet, epoch int) {
	l.tick()
	if epoch != l.epoch {
		return // discarded in flight by setDown
	}
	if l.inflight[0] != p {
		panic("refLink: deliveries out of order")
	}
	l.inflight = l.inflight[1:]
	l.note(probeDeliver, p)
}

func (l *refLink) setDown() {
	if l.down {
		return
	}
	l.down = true
	l.epoch++
	for _, p := range l.queue {
		l.stats.Dropped++
		l.note(probeDrop, p)
	}
	l.queue = nil
	if p := l.txp; p != nil {
		l.txp, l.busy = nil, false
		l.stats.Dropped++
		l.note(probeDrop, p)
	}
	for _, p := range l.inflight {
		l.stats.Delivered--
		l.stats.Dropped++
		l.note(probeDrop, p)
	}
	l.inflight = nil
}

type probeKind uint8

const (
	probeEnqueue probeKind = iota
	probeDrop
	probeDeliver
)

func (k probeKind) String() string { return [...]string{"enqueue", "drop", "deliver"}[k] }

// probeEvent is one probe callback: what happened to a packet and when.
type probeEvent struct {
	kind probeKind
	at   sim.Time
}

func (ev probeEvent) String() string { return fmt.Sprintf("%v@%v", ev.kind, ev.at) }

// linkState is everything the two links must agree on at the end of an
// instant.
type linkState struct {
	stats       LinkStats
	queueLen    int
	serializing bool
}

type opKind uint8

const (
	opSend opKind = iota
	opDown
	opUp
	opResetStats
)

type linkOp struct {
	at    sim.Time
	kind  opKind
	size  int
	layer int
}

// linkScript is a link configuration and a timed operation schedule decoded
// from fuzz bytes: four header bytes, then four bytes per operation.
type linkScript struct {
	bandwidth  float64
	delay      sim.Time
	queueLimit int
	policy     DropPolicy
	ops        []linkOp
}

const maxLinkOps = 400

func parseLinkScript(data []byte) (sc linkScript, ok bool) {
	if len(data) < 8 {
		return sc, false
	}
	// 64 kbit/s .. 1 Gbit/s, log-spaced.
	bws := [...]float64{64e3, 128e3, 500e3, 1e6, 1.5e6, 10e6, 100e6, 1e9}
	sc.bandwidth = bws[int(data[0])%len(bws)]
	delays := [...]sim.Time{0, 1, 50, sim.Millisecond, 10 * sim.Millisecond, 200 * sim.Millisecond}
	sc.delay = delays[int(data[1])%len(delays)]
	sc.queueLimit = int(data[2]) % 21
	sc.policy = DropPolicy(data[3] & 1)
	// Gaps are drawn on the scale of one serialization so arrivals land
	// before, inside and after the previous packet's time on the wire.
	unit := sim.TransmitTime(500, sc.bandwidth)
	var at sim.Time
	for data = data[4:]; len(data) >= 4 && len(sc.ops) < maxLinkOps; data = data[4:] {
		mode, g, size, kind, layer := data[0]&3, sim.Time(data[1]), int(data[2]), data[3]>>3, int(data[3]&7)%6
		switch mode {
		case 0: // same-microsecond burst
		case 1:
			at += g
		case 2:
			at += unit * g / 64
		case 3:
			at += unit * g / 16
		}
		op := linkOp{at: at, kind: opSend, size: 40 + size*6, layer: layer}
		switch kind {
		case 0:
			op.kind = opDown
		case 1, 2:
			op.kind = opUp
		case 3:
			op.kind = opResetStats
		}
		sc.ops = append(sc.ops, op)
	}
	return sc, len(sc.ops) > 0
}

// ledger checks packet conservation on one link: every packet the link
// accepted and has not finished serializing or lost to an outage is either
// waiting in the queue or on the transmitter,
//
//	Enqueued - Delivered - discarded == QueueLen + (serializing ? 1 : 0)
//
// where discarded counts what SetDown threw away (the counters file those
// under Dropped next to arrivals the queue refused). ResetStats zeroes the
// counters under the packets still carried; base keeps the books straight.
type ledger struct{ discarded, base int64 }

func (st linkState) carried() int64 {
	if st.serializing {
		return int64(st.queueLen) + 1
	}
	return int64(st.queueLen)
}

func (g *ledger) reset(before linkState) { g.base = g.discarded + before.carried() }

func (g *ledger) check(st linkState) error {
	if got := st.stats.Enqueued - st.stats.Delivered - (g.discarded - g.base); got != st.carried() {
		return fmt.Errorf("Enqueued-Delivered-discarded = %d, queue+serializing = %d (%+v)", got, st.carried(), st)
	}
	return nil
}

// fanOut is the set of links runLinkScript's sender fans every packet onto.
// Link 0 is the script's own link; link 1 is its twin, so while both are
// idle their deliveries fall on one instant, one after the other, and share
// a queue slot (sim.Engine.Post); link 2's propagation delay is longer, so
// its deliveries land on other instants and cut the slot short; link 3
// serializes at a quarter of the rate, so it is busy while the others are
// idle and the deliveries it books for later instants come between their
// posts.
const fanOut = 4

func (sc linkScript) fanConfig(i int) (bandwidth float64, delay sim.Time) {
	switch i {
	case 2:
		return sc.bandwidth, sc.delay + sim.TransmitTime(250, sc.bandwidth) + 1
	case 3:
		return sc.bandwidth / 4, sc.delay
	}
	return sc.bandwidth, sc.delay
}

// outage says which fan-out links a SetDown or SetUp operation takes down or
// brings up: all of them, link 1 alone (one whose delivery shares link 0's
// slot), or links 0 and 2.
func (op linkOp) outage(i int) bool {
	switch op.layer % 3 {
	case 1:
		return i == 1
	case 2:
		return i == 0 || i == 2
	}
	return true
}

// runLinkScript drives reference links and real Links through the same
// schedule: a sender fans each packet out onto fanOut links at one instant,
// each link with a refLink of its own. It requires identical per-packet
// probe times on every link and — at the end of every instant at which the
// reference fires an event — identical Stats(), QueueLen and serializing
// state, plus packet conservation on both. The real links run twice: once
// on an Engine, where their deliveries share queue slots, and once on one
// whose posts never do; the order of every delivery, across links too, must
// be the same in both, and no orphaned delivery may be left over in either.
// It reports on the first.
//
// An operation in the very microsecond a serialization ends follows the tie
// rule on both sides: the reference settles that serialization first (the
// two-event link's own answer would depend on whether txDone or the
// operation holds the earlier sequence number), and the real link counts a
// packet as waiting only while its start lies ahead. TestLinkIdleRule pins
// the rule directly.
func runLinkScript(t *testing.T, data []byte) fanReport {
	t.Helper()
	sc, ok := parseLinkScript(data)
	if !ok {
		return fanReport{}
	}
	desc := fmt.Sprintf("bw %.0f delay %v qlimit %d policy %d", sc.bandwidth, sc.delay, sc.queueLimit, sc.policy)

	// Reference run: filters the schedule and snapshots the end of every
	// instant.
	re := sim.NewEngine(1)
	var (
		refs   [fanOut]*refLink
		refLog [fanOut]map[int64][]probeEvent
		refLed [fanOut]ledger
	)
	var (
		snaps []fanSnap
		last  sim.Time
	)
	refState := func(i int) linkState {
		r := refs[i]
		return linkState{stats: r.stats, queueLen: len(r.queue), serializing: r.txp != nil}
	}
	endInstant := func() {
		sn := fanSnap{at: last}
		for i := range refs {
			sn.st[i] = refState(i)
			if err := refLed[i].check(sn.st[i]); err != nil {
				t.Fatalf("%s: reference link %d at %v: %v", desc, i, last, err)
			}
		}
		snaps = append(snaps, sn)
	}
	tick := func() {
		if now := re.Now(); now != last {
			endInstant()
			last = now
		}
	}
	for i := range refs {
		bw, delay := sc.fanConfig(i)
		refs[i] = &refLink{e: re, bandwidth: bw, delay: delay, queueLimit: sc.queueLimit, policy: sc.policy, tick: tick}
		log := map[int64][]probeEvent{}
		refLog[i] = log
		refs[i].note = func(k probeKind, p *Packet) { log[p.Seq] = append(log[p.Seq], probeEvent{k, re.Now()}) }
	}
	for i, op := range sc.ops {
		id := int64(i)
		re.At(op.at, sim.Func(func() {
			tick()
			for _, r := range refs {
				r.settle()
			}
			for k, r := range refs {
				switch op.kind {
				case opSend:
					r.send(&Packet{Size: op.size, Layer: op.layer, Seq: id})
				case opDown:
					if op.outage(k) {
						before := r.stats.Dropped
						r.setDown()
						refLed[k].discarded += r.stats.Dropped - before
					}
				case opUp:
					if op.outage(k) {
						r.down = false
					}
				case opResetStats:
					refLed[k].reset(refState(k))
					r.stats = LinkStats{}
				}
			}
		}))
	}
	re.Run()
	endInstant()

	rep, order := runFanOut(t, desc, sc, sim.NewEngine(1), true, snaps, refLog)
	_, plain := runFanOut(t, desc, sc, sim.NewEngine(1), false, snaps, refLog)
	if len(order) != len(plain) {
		t.Fatalf("%s: %d deliveries with posts on lanes, %d without", desc, len(order), len(plain))
	}
	for i := range order {
		if order[i] != plain[i] {
			t.Fatalf("%s: delivery %d is %s with posts on lanes, %s without", desc, i, order[i], plain[i])
		}
	}
	return rep
}

// fanReport is what one run of a link script exercised.
type fanReport struct {
	// events the mid-script probes counted on the links that had no probe
	// before them: the solo link's own probe, and the network probe on the
	// shared link and on the late one (see runFanOut)
	unprobed      [3]int64
	l             *Link  // the script's own link
	laned, posted uint64 // deliveries a lane took, of all posted
	// outages of link 1 alone that left it deliveries to orphan while its
	// twin, link 0, had some in flight too
	sharedOutages int
	// the largest array link 0's ring was on and the most packets it had
	// waiting, after any operation
	peakRing, peakWaiting int
}

// fanSnap is the reference links' state at the end of one instant.
type fanSnap struct {
	at sim.Time
	st [fanOut]linkState
}

// delivery is one packet arriving over one fan-out link.
type delivery struct {
	link int
	seq  int64
	at   sim.Time
}

func (d delivery) String() string {
	return fmt.Sprintf("packet %d over link %d at %v", d.seq, d.link, d.at)
}

// probeSpots picks, from the script's operations, the ones at which
// runFanOut attaches a counting probe to one link (Link.Attach) and one to
// the whole network (Network.AttachProbe), and the one at which it makes a
// link after the network probe.
func probeSpots(sc linkScript) (link, network, late int) {
	h := uint32(2166136261) // FNV-1a over the operations' times and sizes
	for _, op := range sc.ops {
		h = (h ^ uint32(op.at)) * 16777619
		h = (h ^ uint32(op.size)) * 16777619
	}
	ops := uint32(len(sc.ops))
	link, network = int(h%ops), int(h>>8%ops)
	return link, network, network + int(h>>16%(ops-uint32(network)))
}

// tally is what a probe attached to a link must count from some instant
// on: the link's Enqueued and Dropped counters, kept across ResetStats,
// and the packets that arrived over it at its far node.
type tally struct{ enq, drop, deliver int64 }

func (a tally) sub(b tally) tally {
	return tally{a.enq - b.enq, a.drop - b.drop, a.deliver - b.deliver}
}

func (a tally) add(b tally) tally {
	return tally{a.enq + b.enq, a.drop + b.drop, a.deliver + b.deliver}
}

func (a tally) events() int64 { return a.enq + a.drop + a.deliver }

// arrivals counts the unicast packets passing through a node, which is
// every packet a fan-out link delivers (they are addressed back to the
// sender, which no link leads to).
type arrivals struct{ n int64 }

func (c *arrivals) FilterTransit(*Node, *Packet) bool { c.n++; return false }

// probedLink is a link of the fan-out's ledger: its ResetStats carry-over
// and its far node's arrival counter.
type probedLink struct {
	l       *Link
	carried tally
	in      arrivals
}

func (pl *probedLink) tally() tally {
	st := pl.l.Stats()
	return pl.carried.add(tally{st.Enqueued, st.Dropped, pl.in.n})
}

func (pl *probedLink) resetStats() {
	st := pl.l.Stats()
	pl.carried = pl.carried.add(tally{enq: st.Enqueued, drop: st.Dropped})
	pl.l.ResetStats()
}

func (c *CountingProbe) tally() tally { return tally{c.Enqueues, c.Drops, c.Delivers} }

// unlaned is an Engine whose posts never ride a lane: Post is After.
type unlaned struct{ *sim.Engine }

func (u unlaned) Post(delay sim.Time, a sim.Action) { u.After(delay, a) }

// runFanOut runs the filtered schedule on real links and checks them
// against the reference's snapshots and probe logs. With laned false the
// network runs on unlaned, so every delivery is a calendar event. It returns
// what the run exercised and every delivery in the order it happened.
//
// Three more links, configured like link 0 and carrying what it carries,
// have no probe of their own at first: at operations probeSpots picks, the
// first gets a counting probe (Link.Attach), the network gets one
// (Network.AttachProbe) that the second has to reach, and the third is made
// after it. What each probe counts, from its attachment to the end of the
// run, must equal what the links it observes enqueued, dropped and
// delivered meanwhile.
func runFanOut(t *testing.T, desc string, sc linkScript, e *sim.Engine, laned bool, snaps []fanSnap, refLog [fanOut]map[int64][]probeEvent) (fanReport, []delivery) {
	t.Helper()
	var sched sim.Scheduler = e
	if !laned {
		sched, desc = unlaned{e}, desc+" (no lanes)"
	}
	// Pooled packets, so the reference counts are exercised too; the links
	// grow their rings from one pool and take up each other's outgrown
	// arrays.
	net := New(sched)
	a := net.AddNode("a")
	var (
		links [fanOut]*Link
		log   [fanOut]map[int64][]probeEvent
		led   [fanOut]ledger
		order []delivery
		rep   fanReport
	)
	var ledgers []*probedLink // the fan-out links, then the extra ones
	connect := func(name string, bw float64, delay sim.Time) *Link {
		b := net.AddNode(name)
		l := net.ConnectAsym(a, b, LinkConfig{Bandwidth: bw, Delay: delay, Policy: sc.policy})
		l.QueueLimit = sc.queueLimit
		pl := &probedLink{l: l}
		b.SetTransitFilter(&pl.in)
		ledgers = append(ledgers, pl)
		return l
	}
	for i := range links {
		bw, delay := sc.fanConfig(i)
		l := connect(fmt.Sprint("b", i), bw, delay)
		lg := map[int64][]probeEvent{}
		links[i], log[i] = l, lg
		l.Attach(&FuncProbe{
			OnEnqueue: func(l *Link, p *Packet) { lg[p.Seq] = append(lg[p.Seq], probeEvent{probeEnqueue, l.NowTx()}) },
			OnDrop:    func(l *Link, p *Packet) { lg[p.Seq] = append(lg[p.Seq], probeEvent{probeDrop, l.NowTx()}) },
			OnDeliver: func(l *Link, p *Packet) {
				lg[p.Seq] = append(lg[p.Seq], probeEvent{probeDeliver, l.NowRx()})
				order = append(order, delivery{i, p.Seq, l.NowRx()})
			},
		})
	}
	bw, delay := sc.fanConfig(0)
	connect("solo", bw, delay)
	connect("shared", bw, delay)
	var (
		linkProbe, netProbe CountingProbe
		// what the probes' links had counted when they attached
		linkFrom, netFrom, sharedFrom tally
	)
	atLink, atNet, atLate := probeSpots(sc)
	sum := func(pls []*probedLink) (t tally) {
		for _, pl := range pls {
			t = t.add(pl.tally())
		}
		return t
	}
	allLinks := func() []*Link {
		out := links[:]
		for _, pl := range ledgers[fanOut:] {
			out = append(out, pl.l)
		}
		return out
	}
	state := func(l *Link) linkState {
		return linkState{stats: l.Stats(), queueLen: l.QueueLen(), serializing: l.Busy()}
	}
	for i, op := range sc.ops {
		id := int64(i)
		e.At(op.at, sim.Func(func() {
			if i == atLink {
				ledgers[fanOut].l.Attach(&linkProbe)
				linkFrom = ledgers[fanOut].tally()
			}
			if i == atNet {
				net.AttachProbe(&netProbe)
				netFrom, sharedFrom = sum(ledgers), ledgers[fanOut+1].tally()
			}
			if i == atLate {
				connect("late", bw, delay)
			}
			var p *Packet
			if op.kind == opSend {
				p = net.NewPacket()
				p.Kind, p.Src, p.Group = Data, a.ID, NoGroup
				p.Size, p.Layer, p.Seq = op.size, op.layer, id
			}
			for k, l := range links {
				switch op.kind {
				case opSend:
					l.Send(p)
				case opDown:
					if op.outage(k) {
						before := l.Stats().Dropped
						l.SetDown()
						led[k].discarded += l.Stats().Dropped - before
						if k == 1 && l.orphans > 0 && !links[0].down && links[0].inflight.n > 0 {
							rep.sharedOutages++
						}
					}
				case opUp:
					if op.outage(k) {
						l.SetUp()
					}
				case opResetStats:
					led[k].reset(state(l))
					ledgers[k].resetStats()
				}
			}
			for _, pl := range ledgers[fanOut:] { // in step with link 0
				switch op.kind {
				case opSend:
					pl.l.Send(p)
				case opDown:
					if op.outage(0) {
						pl.l.SetDown()
					}
				case opUp:
					if op.outage(0) {
						pl.l.SetUp()
					}
				case opResetStats:
					pl.resetStats()
				}
			}
			if p != nil {
				p.Release()
			}
			rep.peakRing = max(rep.peakRing, len(links[0].inflight.buf))
			rep.peakWaiting = max(rep.peakWaiting, links[0].QueueLen())
			if !laned {
				return // the first run checked the rings
			}
			if err := ringsApart(net, allLinks()...); err != nil {
				t.Fatalf("%s: after op %d at %v: %v", desc, id, op.at, err)
			}
		}))
	}
	for _, s := range snaps {
		e.RunUntil(s.at)
		for k, l := range links {
			if got := state(l); got != s.st[k] {
				t.Fatalf("%s: link %d at the end of instant %v:\n link %+v\n  ref %+v", desc, k, s.at, got, s.st[k])
			}
			if err := led[k].check(state(l)); err != nil {
				t.Fatalf("%s: link %d at %v: %v", desc, k, s.at, err)
			}
		}
		if !laned {
			continue
		}
		if err := ringsApart(net, links[:]...); err != nil {
			t.Fatalf("%s: end of instant %v: %v", desc, s.at, err)
		}
	}
	// All that may be left are deliveries SetDown discarded, and they are
	// inert: each is matched and forgotten when it fires.
	e.Run()
	for k, l := range links {
		if got, want := state(l), snaps[len(snaps)-1].st[k]; got != want {
			t.Fatalf("%s: events after the reference finished changed link %d:\n link %+v\n  ref %+v", desc, k, got, want)
		}
		if l.orphans != 0 || l.squelch != 0 || len(l.aborted) != 0 {
			t.Fatalf("%s: link %d has %d orphaned deliveries left (%d squelched, %d aborted)", desc, k, l.orphans, l.squelch, len(l.aborted))
		}
		for i := range sc.ops {
			id := int64(i)
			if got, want := log[k][id], refLog[k][id]; !slices.Equal(got, want) {
				t.Fatalf("%s: link %d, packet %d (%+v):\n link %v\n  ref %v", desc, k, id, sc.ops[i], got, want)
			}
		}
	}
	if got, want := linkProbe.tally(), ledgers[fanOut].tally().sub(linkFrom); got != want {
		t.Fatalf("%s: a probe attached to a link at op %d counted %+v, the link %+v", desc, atLink, got, want)
	}
	if got, want := netProbe.tally(), sum(ledgers).sub(netFrom); got != want {
		t.Fatalf("%s: a network probe attached at op %d (a link made at op %d) counted %+v, the links %+v", desc, atNet, atLate, got, want)
	}
	rep.unprobed[0] = linkProbe.tally().events()
	rep.unprobed[1] = ledgers[fanOut+1].tally().sub(sharedFrom).events()
	rep.unprobed[2] = ledgers[fanOut+2].tally().events()
	if free, allocs := len(net.pktFree), net.PacketAllocs(); uint64(free) != allocs {
		t.Fatalf("%s: %d of %d pooled packets came back", desc, free, allocs)
	}
	onLanes, fellBack := e.Posts()
	rep.l, rep.laned, rep.posted = links[0], onLanes, onLanes+fellBack
	return rep, order
}

// ringsApart checks the memory behind the links' packet rings: a ring is on
// its own link's two inline slots, on nothing, or on a pool array of at
// least minRing slots; no two rings share a slot; and the array the pool
// would hand out next in every class a ring could ask for (taken and given
// straight back) holds no slot of a live ring or of a link's inline pair.
func ringsApart(net *Network, links ...*Link) error {
	type span struct {
		link   int    // index into links; -1 for the pool's array
		what   string // "inline slots" or "ring"
		lo, hi uintptr
	}
	const word = unsafe.Sizeof((*Packet)(nil))
	name := func(sp span) string {
		if sp.link < 0 {
			return fmt.Sprintf("the pool's next %d-slot array", (sp.hi-sp.lo)/word)
		}
		return fmt.Sprintf("link %d's %s", sp.link, sp.what)
	}
	spanOf := func(link int, what string, a []*Packet) span {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
		return span{link, what, lo, lo + uintptr(cap(a))*word}
	}
	var live []span
	top := minRing
	for i, l := range links {
		pipe := spanOf(i, "inline slots", l.pipe[:])
		live = append(live, pipe)
		sp, n := spanOf(i, "ring", l.inflight.buf), len(l.inflight.buf)
		switch {
		case n == 0:
			continue
		case sp.lo == pipe.lo && n == len(l.pipe):
			continue // on its own inline slots, counted above
		case n < minRing || n&(n-1) != 0:
			return fmt.Errorf("%s has %d slots, not a power of two from %d", name(sp), n, minRing)
		}
		top = max(top, n)
		live = append(live, sp)
	}
	for i := range live {
		for j := range i {
			if live[i].lo < live[j].hi && live[j].lo < live[i].hi {
				return fmt.Errorf("%s overlaps %s", name(live[i]), name(live[j]))
			}
		}
	}
	for c := 2; c <= 2*top; c *= 2 {
		a := net.rings.Get(c)
		next := spanOf(-1, "", a)
		net.rings.Put(a)
		for _, sp := range live {
			if next.lo < sp.hi && sp.lo < next.hi {
				return fmt.Errorf("%s overlaps %s", name(next), name(sp))
			}
		}
	}
	return nil
}

// saturationScript is the long-saturation script family: a full-length
// schedule on a fast link with a 200 ms pipe that keeps the transmitter busy
// throughout — large packets offered a third faster than they serialize, so
// the queue fills gradually behind a moving head, then small ones, so the
// link has to hold many times more packets than it did when deliveries
// began. Its ring therefore wraps, and grows while wrapped. Outages (some
// with the repair inside the aborted serialization), stats resets and mixed
// layers for DropPriority are sprinkled over it.
func saturationScript(rng *rand.Rand) []byte {
	const send, down, up, reset = 4 << 3, 0, 1 << 3, 3 << 3
	data := []byte{byte(3 + rng.Intn(5)), 5, byte(4 + rng.Intn(17)), byte(rng.Intn(2))}
	for op := 0; op < maxLinkOps; op++ {
		kind := byte(send)
		switch rng.Intn(100) {
		case 0:
			kind = down
		case 1, 2, 3, 4:
			kind = up
		case 5:
			kind = reset
		}
		kind |= byte(rng.Intn(6))
		if op < maxLinkOps/3 {
			// 1240..1570 B (2.5..3.1 units of 500 B) every 1.6..2.5 units.
			data = append(data, 3, byte(25+rng.Intn(16)), byte(200+rng.Intn(56)), kind)
		} else {
			// 40..100 B every 0.06..0.16 units.
			data = append(data, 2, byte(4+rng.Intn(7)), byte(rng.Intn(11)), kind)
		}
	}
	return data
}

// pipelineScripts walk a link's in-flight pipeline off its two inline slots
// and back: 10 Mbit/s, a 10 ms pipe and 100-byte packets (80 µs each), so a
// burst of five has all five in flight at once, the ring spills to the heap
// at the third, and two 6.4 ms waits (no-op SetUp calls) drain it to zero
// before the next burst refills it.
var pipelineScripts = func() [][]byte {
	const send, down, up = 4 << 3, 0, 1 << 3
	burst := func(n int) (ops []byte) {
		for i := 0; i < n; i++ {
			ops = append(ops, 0, 0, 10, send|byte(i%6))
		}
		return ops
	}
	drain := []byte{3, 255, 0, up, 3, 255, 0, up}
	cat := func(parts ...[]byte) (out []byte) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	return [][]byte{
		// five in flight, drain to 0, refill with four, drain, one more
		cat([]byte{5, 4, 20, 0}, burst(5), drain, burst(4), drain, burst(1)),
		// SetDown at 200 µs with three in flight (the third serializing)
		// and two queued, repair 1 ms later, refill while the discarded
		// deliveries are still due, drain, one more
		cat([]byte{5, 4, 20, 1}, burst(5), []byte{1, 200, 0, down, 3, 40, 0, up}, burst(4), drain, burst(1)),
	}
}()

// txMemoScripts aim at book's serialization-time memo, which reuses the
// last packet's time while sizes repeat: the reference recomputes it for
// every packet, so a memo that misses a size change shows as a late or
// early delivery.
var txMemoScripts = func() [][]byte {
	const send, down, up = 4 << 3, 0, 1 << 3
	run := func(n int, mode, gap, size, layer byte) (ops []byte) {
		for i := 0; i < n; i++ {
			ops = append(ops, mode, gap, size, send|layer)
		}
		return ops
	}
	cat := func(parts ...[]byte) (out []byte) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	return [][]byte{
		// 1 Mbit/s: 1000-byte packets, queued and then on an idle link, a
		// 100-byte one between them, then 1000 bytes again both ways.
		cat([]byte{3, 3, 20, 0}, run(4, 0, 0, 160, 0), run(2, 3, 40, 160, 0),
			run(1, 0, 0, 10, 0), run(1, 3, 40, 10, 0),
			run(3, 0, 0, 160, 0), run(2, 3, 40, 160, 0)),
		// 500 kbit/s, 200 ms pipe: SetDown aborts a 1000-byte serialization,
		// the repair follows inside it, and the next packets are 1000, 100
		// and 1000 bytes.
		cat([]byte{2, 5, 20, 0}, run(2, 0, 0, 160, 0), []byte{2, 40, 0, down, 2, 10, 0, up},
			run(1, 1, 1, 160, 0), run(1, 0, 0, 10, 0), run(1, 0, 0, 160, 0)),
		// 128 kbit/s, priority dropping into a one-slot queue: a 100-byte
		// layer-0 arrival replaces a queued 1000-byte layer-4 victim and is
		// serialized at its own size, after a 1240-byte layer-5 packet.
		cat([]byte{1, 4, 1, 1}, run(1, 0, 0, 200, 5), run(1, 0, 0, 160, 4),
			run(1, 0, 0, 10, 0), run(2, 3, 200, 160, 3)),
	}
}()

// queueScripts aim at what Send books for a packet that waits: its start is
// fixed when it is accepted, and what follows has to keep to it.
var queueScripts = func() [][]byte {
	const send, down, up, reset = 4 << 3, 0, 1 << 3, 3 << 3
	op := func(mode, gap, size, kind byte) []byte { return []byte{mode, gap, size, kind} }
	burst := func(n int, size, kind byte) (ops []byte) {
		for i := 0; i < n; i++ {
			ops = append(ops, op(0, 0, size, kind)...)
		}
		return ops
	}
	cat := func(parts ...[]byte) (out []byte) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	return [][]byte{
		// 1 Mbit/s, 1 ms pipe, two waiting places: 250-byte packets take
		// 2 ms, and mode 3 steps 250 µs, so gap 8 lands on a serialization
		// end. A full queue there has room for one (the next packet has just
		// started); a reset and a SetDown follow on serialization ends too,
		// and a 100-byte packet after the repair overtakes the aborted one.
		cat([]byte{3, 3, 2, 0}, burst(3, 35, send),
			op(3, 8, 35, send), op(0, 0, 35, send),
			op(3, 8, 0, reset), op(0, 0, 35, send),
			op(3, 8, 0, down), op(1, 100, 0, up), op(0, 0, 10, send), op(3, 40, 35, send)),
		// QueueLimit 0: an arrival at the serialization end goes on the wire,
		// a second one in that microsecond is dropped.
		cat([]byte{3, 3, 0, 0}, op(0, 0, 35, send), op(3, 8, 35, send), op(0, 0, 35, send)),
		// Priority dropping into three waiting places, layers 2, 5, 3 behind
		// a layer-0 packet: a smaller arrival replaces the middle victim
		// (the packet after it moves earlier), a larger one the newest, a
		// larger one the oldest (two move later), an arrival above them all
		// is dropped, and one more comes at the serialization end.
		cat([]byte{3, 3, 3, 1}, op(0, 0, 35, send), op(0, 0, 35, send|2), op(0, 0, 35, send|5), op(0, 0, 35, send|3),
			op(1, 10, 10, send|1), op(1, 10, 100, send), op(1, 10, 60, send|1), op(0, 0, 35, send|5),
			op(1, 200, 35, send|4), op(2, 100, 10, send|3), op(0, 0, 200, send)),
		// 10 Mbit/s, 10 ms pipe: five 1000-byte packets, SetDown at 200 µs
		// with one serializing and four waiting, repair 100 µs later, and
		// 100-byte packets that arrive before any discarded packet was due;
		// then link 1 alone goes down with packets waiting behind its twin's.
		cat([]byte{5, 4, 20, 0}, burst(5, 160, send), op(1, 200, 0, down), op(1, 100, 0, up),
			op(0, 0, 10, send), op(1, 100, 10, send), op(3, 255, 10, send),
			burst(4, 160, send), op(1, 250, 0, down|1), op(1, 50, 0, up|1), op(0, 0, 10, send), op(3, 255, 10, send)),
		// 1 Mbit/s, 50 µs pipe, six waiting places: a burst of eight fills
		// them, then nothing is sent for 9 ms while the queue drains and its
		// oldest packets are delivered, so the waiting count Send cached is
		// larger than what is still aboard. Five arrivals then find two
		// waiting: four are accepted, one dropped.
		cat([]byte{3, 2, 6, 0}, burst(8, 35, send), op(3, 36, 35, send), burst(4, 35, send),
			op(3, 200, 35, send)),
	}
}()

// TestLinkTimingRandomScripts is the differential test over a table of
// seeds: short scripts on every bandwidth/delay/queue/policy combination
// the decoder can draw.
func TestLinkTimingRandomScripts(t *testing.T) {
	var laned, posted uint64
	sharedOutages := 0
	var unprobed [3]int64
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4+4*(10+rng.Intn(maxLinkOps)))
		rng.Read(data)
		rep := runLinkScript(t, data)
		laned += rep.laned
		posted += rep.posted
		sharedOutages += rep.sharedOutages
		for i, n := range rep.unprobed {
			unprobed[i] += n
		}
	}
	// The probes attached mid-script must see events on links that had
	// none before them, each way a link comes to be observed.
	t.Logf("probes attached mid-script saw %v events on unobserved links", unprobed)
	for i, what := range [...]string{"a link's own probe", "a network probe on a link made before it", "a network probe on a link made after it"} {
		if unprobed[i] < 1000 {
			t.Errorf("%s saw %d events over the scripts; want 1000", what, unprobed[i])
		}
	}
	// The fan-out's deliveries must ride the lanes, and outages must catch
	// one of two twins' deliveries in flight beside the other's.
	t.Logf("%d of %d deliveries laned, %d outages of one twin", laned, posted, sharedOutages)
	if laned < 10000 || float64(laned) < 0.99*float64(posted) || sharedOutages < 20 {
		t.Errorf("%d of %d deliveries laned and %d outages hit one twin of two in flight; want 10000, 99 %% and 20", laned, posted, sharedOutages)
	}
	for _, data := range txMemoScripts {
		runLinkScript(t, data)
	}
	for _, data := range queueScripts {
		runLinkScript(t, data)
	}
	// The pipeline scripts leave the inline slots and come back to them.
	for i, data := range pipelineScripts {
		if rep := runLinkScript(t, data); rep.peakRing < 4 || rep.l.inflight.n != 0 || &rep.l.inflight.buf[0] != &rep.l.pipe[0] {
			t.Errorf("pipeline script %d: ring reached %d slots and ended on %d holding %d; want a spilled ring, drained onto the inline pair",
				i, rep.peakRing, len(rep.l.inflight.buf), rep.l.inflight.n)
		}
	}
	// Outages cut some scripts short, but in most far more packets must be
	// aboard at once than the ring had room for when the first delivery
	// moved its head, so it grows past its first arrays, wrapped, and the
	// queue must fill to its limit.
	deep, full := 0, 0
	for seed := int64(1); seed <= 100; seed++ {
		rep := runLinkScript(t, saturationScript(rand.New(rand.NewSource(seed))))
		if rep.peakRing >= 64 {
			deep++
		}
		if rep.peakWaiting == rep.l.QueueLimit {
			full++
		}
	}
	if deep < 75 || full < 75 {
		t.Errorf("of 100 saturation scripts %d grew the ring to 64 and %d filled the queue to its limit; want 75 each", deep, full)
	}
}

// FuzzLinkTiming lets the native fuzzer search for a schedule on which the
// one-event link and the two-event reference disagree.
func FuzzLinkTiming(f *testing.F) {
	// Byte 3 of an operation is kind<<3 | layer: kind 0 down, 1 up, 3 reset,
	// 4 and above send; an outage's layer picks its links (linkOp.outage).
	const send, down, up, reset = 4 << 3, 0, 1 << 3, 3 << 3
	for _, seed := range [][]byte{
		// burst into a short queue
		{3, 3, 2, 0, 0, 0, 100, send, 0, 0, 100, send | 1, 0, 0, 100, send | 2, 0, 0, 100, send | 3, 0, 0, 100, send | 4},
		// priority replacement
		{1, 4, 1, 1, 0, 0, 200, send | 5, 0, 0, 200, send | 4, 2, 9, 200, send, 2, 9, 200, send | 1, 2, 9, 200, send},
		// down mid-serialization, up inside what was left of it, short packet
		{2, 5, 20, 0, 0, 0, 160, send, 0, 0, 160, send, 2, 40, 0, 0, 3, 9, 0, up, 2, 1, 10, send},
		// queue limit 0, reset and down mid-serialization
		{0, 3, 0, 0, 0, 0, 10, send, 1, 200, 10, send, 2, 30, 0, reset, 2, 90, 10, send, 2, 3, 0, 0},
		// 1 Gbit/s, microsecond gaps
		{7, 1, 20, 0, 1, 1, 255, send, 1, 13, 255, send, 1, 12, 255, send, 0, 0, 1, send, 1, 2, 0, 0, 1, 0, 0, up},
		// 10 Mbit/s, 10 ms pipe: link 1 alone (layer 1) goes down while its
		// delivery shares a slot with its twin's, comes back up, and sends
		// again before the orphaned delivery is due; then links 0 and 2
		// (layer 2) go down with a packet in flight, and all come back.
		{5, 4, 20, 0, 0, 0, 10, send, 1, 100, 0, down | 1, 1, 100, 0, up | 1, 1, 100, 10, send,
			3, 255, 10, send, 1, 100, 0, down | 2, 3, 255, 0, up, 3, 255, 10, send},
	} {
		f.Add(seed)
	}
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(saturationScript(rand.New(rand.NewSource(seed))))
	}
	for _, data := range pipelineScripts {
		f.Add(data)
	}
	for _, data := range txMemoScripts {
		f.Add(data)
	}
	for _, data := range queueScripts {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runLinkScript(t, data) })
}

// TestLinkIdleRule pins the tie rule the differential test applies to its
// reference: a serialization that ends at t has handed the transmitter to
// the next waiting packet before any Send at t, so a full queue has room at
// that instant, whatever order the instant's events were scheduled in.
// 125 B at 1 Mbit/s serialize in 1 ms; propagation is 1 ms.
func TestLinkIdleRule(t *testing.T) {
	const tx, delay = sim.Millisecond, sim.Millisecond
	cases := []struct {
		name       string
		queueLimit int
		preload    int      // packets offered at t=0: one on the wire, the rest waiting
		at         sim.Time // the arrival under test
		late       bool     // arrival scheduled during the run, after everything of t=0
		deliver    sim.Time // expected delivery; 0 = dropped
	}{
		{"idle link", 20, 0, 0, false, tx + delay},
		{"last microsecond of a serialization: queues", 20, 1, tx - 1, false, 2*tx + delay},
		{"serialization ends now: on the wire at once", 20, 1, tx, false, 2*tx + delay},
		{"QueueLimit 0, last microsecond: dropped", 0, 1, tx - 1, false, 0},
		{"QueueLimit 0, serialization ends now: on the wire", 0, 1, tx, false, 2*tx + delay},
		{"full queue, last microsecond: dropped", 1, 2, tx - 1, false, 0},
		{"full queue, serialization ends now: room at once", 1, 2, tx, false, 3*tx + delay},
		{"full queue, serialization ends now, arrival scheduled late: room at once", 1, 2, tx, true, 3*tx + delay},
	}
	for _, tc := range cases {
		e := sim.NewEngine(1)
		net := New(e)
		a, b := net.AddNode("a"), net.AddNode("b")
		l := net.ConnectAsym(a, b, LinkConfig{Bandwidth: 1e6, Delay: delay})
		l.QueueLimit = tc.queueLimit
		var delivered sim.Time
		dropped := false
		l.Attach(&FuncProbe{
			OnDrop: func(_ *Link, p *Packet) { dropped = dropped || p.Seq == 99 },
			OnDeliver: func(l *Link, p *Packet) {
				if p.Seq == 99 {
					delivered = l.NowRx()
				}
			},
		})
		mk := func(seq int64) *Packet {
			return &Packet{Kind: Data, Src: a.ID, Dst: b.ID, Group: NoGroup, Size: 125, Seq: seq}
		}
		arrive := func() {
			idle := l.QueueLen() == 0 && !l.Busy()
			l.Send(mk(99))
			if onWire := l.QueueLen() == 0 && l.Busy() && !dropped; idle != onWire {
				t.Errorf("%s: idle before = %v, on the wire after = %v", tc.name, idle, onWire)
			}
		}
		if tc.late {
			// Scheduled during the run, so it takes a later sequence number
			// than anything the link scheduled at t=0.
			e.At(tc.at-1, sim.Func(func() { e.Schedule(1, arrive) }))
		} else {
			e.At(tc.at, sim.Func(arrive))
		}
		for i := 0; i < tc.preload; i++ {
			l.Send(mk(int64(i)))
		}
		e.Run()
		if dropped != (tc.deliver == 0) || delivered != tc.deliver {
			t.Errorf("%s: dropped %v, delivered at %v; want delivery at %v (0 = dropped)", tc.name, dropped, delivered, tc.deliver)
		}
	}
}

// TestLinkEventsPerHop pins the event budget: every packet a link accepts
// costs one scheduler event for the hop, its delivery, whether it found the
// transmitter idle or waited; a packet the queue refuses costs none.
func TestLinkEventsPerHop(t *testing.T) {
	send := func(src, dst *Node) {
		src.SendUnicast(&Packet{Kind: Control, Src: src.ID, Dst: dst.ID, Group: NoGroup, Size: 1000})
	}
	t.Run("idle link", func(t *testing.T) {
		e := sim.NewEngine(1)
		_, src, dst := benchChain(e, 1, 64)
		send(src, dst)
		e.Run()
		if got := e.Fired(); got != 1 || dst.RecvUnicast != 1 {
			t.Errorf("fired %d events for 1 hop (delivered %d), want 1", got, dst.RecvUnicast)
		}
	})
	t.Run("burst", func(t *testing.T) {
		const k = 10
		e := sim.NewEngine(1)
		_, src, dst := benchChain(e, 1, 64)
		for i := 0; i < k; i++ {
			send(src, dst)
		}
		e.Run()
		if got := e.Fired(); got != k || dst.RecvUnicast != k {
			t.Errorf("fired %d events for a burst of %d (delivered %d), want %d", got, k, dst.RecvUnicast, k)
		}
	})
	t.Run("full queue", func(t *testing.T) {
		// 50 offered into 4 waiting places: 5 accepted, 45 dropped.
		const k, queue = 50, 4
		e := sim.NewEngine(1)
		_, src, dst := benchChain(e, 1, queue)
		for i := 0; i < k; i++ {
			send(src, dst)
		}
		e.Run()
		if got := e.Fired(); got != queue+1 || dst.RecvUnicast != queue+1 {
			t.Errorf("fired %d events for a burst of %d into %d waiting places (delivered %d), want %d", got, k, queue, dst.RecvUnicast, queue+1)
		}
	})
	t.Run("burst along a chain", func(t *testing.T) {
		const k, hops = 10, 8
		e := sim.NewEngine(1)
		_, src, dst := benchChain(e, hops, 64)
		for i := 0; i < k; i++ {
			send(src, dst)
		}
		e.Run()
		if got := e.Fired(); got != k*hops || dst.RecvUnicast != k {
			t.Errorf("fired %d events for %d packets over %d hops (delivered %d), want %d", got, k, hops, dst.RecvUnicast, k*hops)
		}
	})
	t.Run("paced chain", func(t *testing.T) {
		const hops, n = 8, 100
		e := sim.NewEngine(1)
		_, src, dst := benchChain(e, hops, 64)
		benchInjectPaced(e, n, func(int) { send(src, dst) })
		if got := linkEventsPerHop(e, n, hops); got != 1 || dst.RecvUnicast != n {
			t.Errorf("%v link events per hop (delivered %d), want 1", got, dst.RecvUnicast)
		}
	})
}
