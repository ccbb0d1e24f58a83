package netsim

import (
	"reflect"
	"testing"

	"toposense/internal/sim"
)

func TestSendOnDownLinkDropped(t *testing.T) {
	cfg := LinkConfig{Bandwidth: 1e6, Delay: sim.Millisecond}
	e, _, a, b, _ := lineNetwork(t, cfg)
	sink := &collector{}
	b.AttachAgent(sink)
	l := a.LinkTo(b.ID)
	l.SetDown()
	if !l.Down() {
		t.Fatal("link not down after SetDown")
	}
	// Offer a packet straight to the failed link (as cached multicast
	// forwarding state would): it must be dropped on arrival.
	drops := 0
	l.Attach(&FuncProbe{OnDrop: func(*Link, *Packet) { drops++ }})
	l.Send(&Packet{Kind: Data, Src: a.ID, Dst: b.ID, Group: NoGroup, Size: 1000})
	e.Run()
	if len(sink.got) != 0 {
		t.Fatalf("delivered %d packets over a down link", len(sink.got))
	}
	st := l.Stats()
	if st.Dropped != 1 || st.Enqueued != 0 || drops != 1 {
		t.Errorf("stats = %+v, probe drops = %d; want 1 drop, 0 enqueued", st, drops)
	}
}

func TestSetDownDiscardsCarriedTraffic(t *testing.T) {
	// 1000B at 8e5 bps = 10ms serialization, 50ms propagation. Send 5
	// back-to-back and fail the link at t=25ms: packets 0,1 are in flight
	// (serialized at 10/20ms), packet 2 mid-serialization, 3-4 queued.
	// Everything the link carries at the failure is lost; only deliveries
	// that already completed (none: first arrives at 60ms) survive.
	cfg := LinkConfig{Bandwidth: 8e5, Delay: 50 * sim.Millisecond}
	e, _, a, b, _ := lineNetwork(t, cfg)
	sink := &collector{}
	b.AttachAgent(sink)
	for i := 0; i < 5; i++ {
		a.SendUnicast(&Packet{Kind: Data, Src: a.ID, Dst: b.ID, Group: NoGroup, Size: 1000, Seq: int64(i)})
	}
	l := a.LinkTo(b.ID)
	e.Schedule(25*sim.Millisecond, func() { l.SetDown() })
	e.Run() // must drain cleanly: inert deliveries, cancelled drain
	if len(sink.got) != 0 {
		t.Fatalf("delivered %d packets, want 0 (all discarded by failure)", len(sink.got))
	}
	st := l.Stats()
	if st.Dropped != 5 || st.Delivered != 0 {
		t.Errorf("Dropped = %d, Delivered = %d; want 5, 0", st.Dropped, st.Delivered)
	}
	if st.Enqueued != 5 {
		t.Errorf("Enqueued = %d, want 5 (all were accepted before the failure)", st.Enqueued)
	}
	if l.Busy() || l.QueueLen() != 0 {
		t.Errorf("link not idle after discard: busy=%v queue=%d", l.Busy(), l.QueueLen())
	}
}

// An outage shorter than one packet time must not leave a ghost behind: the
// aborted serialization frees the transmitter at once, so the first packet
// after the repair goes straight to the wire — and, being shorter than what
// was left of the aborted one, is delivered before the aborted packet's
// (now inert) delivery event fires.
func TestSetUpInsideAbortedSerialization(t *testing.T) {
	// 1000B at 8e5 bps = 10ms serialization, 50ms propagation. Down at 5ms
	// (half-way), up at 7.5ms, then 100B (1ms) at once.
	cfg := LinkConfig{Bandwidth: 8e5, Delay: 50 * sim.Millisecond}
	e, _, a, b, _ := lineNetwork(t, cfg)
	l := a.LinkTo(b.ID)
	var deliveredAt []sim.Time
	l.Attach(&FuncProbe{OnDeliver: func(l *Link, p *Packet) { deliveredAt = append(deliveredAt, l.NowRx()) }})
	a.SendUnicast(&Packet{Kind: Data, Src: a.ID, Dst: b.ID, Group: NoGroup, Size: 1000})
	e.Schedule(5*sim.Millisecond, func() {
		l.SetDown()
		if l.Busy() {
			t.Error("transmitter still busy after SetDown aborted its packet")
		}
	})
	e.Schedule(7500, func() {
		l.SetUp()
		if l.Busy() {
			t.Error("repaired link busy with a transmission that no longer exists")
		}
		a.SendUnicast(&Packet{Kind: Data, Src: a.ID, Dst: b.ID, Group: NoGroup, Size: 100})
		if !l.Busy() || l.QueueLen() != 0 {
			t.Errorf("first packet after the repair not on the wire: busy=%v queue=%d", l.Busy(), l.QueueLen())
		}
	})
	e.Run()
	if want := []sim.Time{7500 + 1000 + 50*sim.Millisecond}; !reflect.DeepEqual(deliveredAt, want) {
		t.Errorf("deliveries at %v, want %v", deliveredAt, want)
	}
	if st, want := l.Stats(), (LinkStats{Enqueued: 2, Delivered: 1, Dropped: 1, TxBytes: 100}); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

func TestLinkRecoversAfterSetUp(t *testing.T) {
	cfg := LinkConfig{Bandwidth: 1e6, Delay: sim.Millisecond}
	e, _, a, b, _ := lineNetwork(t, cfg)
	sink := &collector{}
	b.AttachAgent(sink)
	l := a.LinkTo(b.ID)
	l.SetDown()
	l.SetUp()
	if l.Down() {
		t.Fatal("link still down after SetUp")
	}
	a.SendUnicast(&Packet{Kind: Data, Src: a.ID, Dst: b.ID, Group: NoGroup, Size: 1000})
	e.Run()
	if len(sink.got) != 1 {
		t.Fatalf("delivered %d packets after repair, want 1", len(sink.got))
	}
}

// squareNetwork builds a - b - d and a - c - d: two equal-length paths.
func squareNetwork(t *testing.T) (*sim.Engine, *Network, [4]*Node) {
	t.Helper()
	e := sim.NewEngine(1)
	n := New(e)
	cfg := LinkConfig{Bandwidth: 1e6, Delay: sim.Millisecond}
	a := n.AddNode("a")
	b := n.AddNode("b")
	c := n.AddNode("c")
	d := n.AddNode("d")
	n.Connect(a, b, cfg)
	n.Connect(a, c, cfg)
	n.Connect(b, d, cfg)
	n.Connect(c, d, cfg)
	return e, n, [4]*Node{a, b, c, d}
}

func TestReroutesAroundFailedLink(t *testing.T) {
	e, n, nd := squareNetwork(t)
	a, b, c, d := nd[0], nd[1], nd[2], nd[3]
	if got := n.NextHop(a.ID, d.ID); got != b.ID {
		t.Fatalf("NextHop(a,d) = %d, want %d (BFS tie-break)", got, b.ID)
	}
	a.LinkTo(b.ID).SetDown()
	if got := n.NextHop(a.ID, d.ID); got != c.ID {
		t.Fatalf("NextHop(a,d) = %d after failure, want %d", got, c.ID)
	}
	// Traffic actually flows over the alternate path.
	sink := &collector{}
	d.AttachAgent(sink)
	a.SendUnicast(&Packet{Kind: Data, Src: a.ID, Dst: d.ID, Group: NoGroup, Size: 1000})
	e.Run()
	if len(sink.got) != 1 {
		t.Fatalf("delivered %d, want 1 via reroute", len(sink.got))
	}
	if got := c.LinkTo(d.ID).Stats().Delivered; got != 1 {
		t.Errorf("alternate link delivered %d, want 1", got)
	}
	// Repair restores the original route.
	a.LinkTo(b.ID).SetUp()
	if got := n.NextHop(a.ID, d.ID); got != b.ID {
		t.Errorf("NextHop(a,d) = %d after repair, want %d", got, b.ID)
	}
}

func TestRouteChangeNotification(t *testing.T) {
	_, n, nd := squareNetwork(t)
	a, b, d := nd[0], nd[1], nd[3]
	var got []RouteChange
	n.OnRouteChange(func(changes []RouteChange) {
		for _, ch := range changes {
			cp := ch
			cp.Nodes = append([]NodeID(nil), ch.Nodes...)
			got = append(got, cp)
		}
	})
	a.LinkTo(b.ID).SetDown()
	// Only destinations routed through a->b can change: b itself and d.
	// Toward b both a and c re-home (c routed c->a->b); toward d only a.
	want := []RouteChange{
		{Dst: b.ID, Nodes: []NodeID{a.ID, nd[2].ID}},
		{Dst: d.ID, Nodes: []NodeID{a.ID}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("changes after SetDown = %+v, want %+v", got, want)
	}
	got = nil
	a.LinkTo(b.ID).SetUp()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("changes after SetUp = %+v, want %+v", got, want)
	}
	// Redundant transitions are no-ops: no notification, no route churn.
	got = nil
	a.LinkTo(b.ID).SetUp()
	if len(got) != 0 {
		t.Fatalf("SetUp on an up link notified: %+v", got)
	}
}

func TestFailureDisconnectsAndUnroutableCounted(t *testing.T) {
	cfg := LinkConfig{Bandwidth: 1e6, Delay: sim.Millisecond}
	e, n, a, b, c := lineNetwork(t, cfg)
	b.LinkTo(c.ID).SetDown()
	if got := n.NextHop(a.ID, c.ID); got != NoNode {
		t.Fatalf("NextHop(a,c) = %d, want NoNode while cut off", got)
	}
	a.SendUnicast(&Packet{Kind: Data, Src: a.ID, Dst: c.ID, Group: NoGroup, Size: 100})
	e.Run()
	if n.Unroutable != 1 {
		t.Errorf("Unroutable = %d, want 1", n.Unroutable)
	}
	b.LinkTo(c.ID).SetUp()
	if got := n.NextHop(a.ID, c.ID); got != b.ID {
		t.Errorf("NextHop(a,c) = %d after repair, want %d", got, b.ID)
	}
}

func TestReverseLink(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e)
	a := n.AddNode("a")
	b := n.AddNode("b")
	c := n.AddNode("c")
	cfg := LinkConfig{Bandwidth: 1e6, Delay: 0}
	ab, ba := n.Connect(a, b, cfg)
	if ab.Reverse() != ba || ba.Reverse() != ab {
		t.Error("Reverse does not pair a symmetric connection")
	}
	if asym := n.ConnectAsym(a, c, cfg); asym.Reverse() != nil {
		t.Error("Reverse of an asymmetric link should be nil")
	}
}

// arrivalLog records when each unicast packet reached its node, on that
// node's own clock.
type arrivalLog struct {
	sched sim.Scheduler
	at    []sim.Time
}

func (a *arrivalLog) Recv(*Packet) { a.at = append(a.at, a.sched.Now()) }

// TestBoundaryLinkDeliveryCrossesShards: on a partition-boundary link the
// delivery event's Action — the link itself — rides the cross-shard mailbox
// (crossEvent) into the receiving shard, while the transmitting shard keeps
// pushing onto a ring spilled past its two inline slots, which the
// receiving shard gives back to the pool when it empties. Both directions
// run at once on two workers (run it under -race), and every arrival lands
// when it does on the plain engine.
func TestBoundaryLinkDeliveryCrossesShards(t *testing.T) {
	run := func(sharded bool) (arrivals [2][]sim.Time, cross uint64) {
		var eng sim.Runner = sim.NewEngine(1)
		se := sim.NewShardedEngine(1, 2)
		if sharded {
			eng = se
		}
		net := New(eng)
		a, b := net.AddNode("a"), net.AddNode("b")
		ab, ba := net.Connect(a, b, LinkConfig{Bandwidth: 10e6, Delay: sim.Millisecond, QueueLimit: 64})
		if sharded {
			net.Partition(se, []int{0, 1})
		}
		logs := [2]*arrivalLog{{sched: net.SchedulerFor(b.ID)}, {sched: net.SchedulerFor(a.ID)}}
		b.AttachAgent(logs[0])
		a.AttachAgent(logs[1])
		for dir, ends := range [2][2]*Node{{a, b}, {b, a}} {
			from, to := ends[0], ends[1]
			s := net.SchedulerFor(from.ID)
			for k := 0; k < 60; k++ {
				// 100 B take 80 µs on the wire: a dozen ride the 1 ms pipe.
				s.At(sim.Time(k)*(20+sim.Time(dir)*30)*sim.Microsecond, sim.Func(func() {
					p := net.NewPacket()
					p.Kind, p.Src, p.Dst, p.Group, p.Size = Control, from.ID, to.ID, NoGroup, 100
					from.SendUnicast(p)
					p.Release()
				}))
			}
		}
		eng.Run()
		if net.RingArraysMade() == 0 {
			t.Errorf("sharded=%v: no ring left its inline pair", sharded)
		}
		for _, l := range []*Link{ab, ba} {
			if l.inflight.n != 0 || &l.inflight.buf[0] != &l.pipe[0] {
				t.Errorf("sharded=%v %v: ring of %d slots holding %d; want drained onto the inline pair", sharded, l, len(l.inflight.buf), l.inflight.n)
			}
		}
		return [2][]sim.Time{logs[0].at, logs[1].at}, se.Stats().CrossEvents
	}
	want, _ := run(false)
	got, cross := run(true)
	if cross != 120 {
		t.Errorf("%d events crossed shards; want 120, one delivery per packet", cross)
	}
	for dir := range want {
		if len(want[dir]) != 60 || !reflect.DeepEqual(got[dir], want[dir]) {
			t.Errorf("direction %d: sharded arrivals %v\nplain engine %v", dir, got[dir], want[dir])
		}
	}
}
