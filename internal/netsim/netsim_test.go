package netsim

import (
	"fmt"
	"testing"

	"toposense/internal/sim"
)

// lineNetwork builds a -- b -- c with the given per-link config.
func lineNetwork(t *testing.T, cfg LinkConfig) (*sim.Engine, *Network, *Node, *Node, *Node) {
	t.Helper()
	e := sim.NewEngine(1)
	n := New(e)
	a := n.AddNode("a")
	b := n.AddNode("b")
	c := n.AddNode("c")
	n.Connect(a, b, cfg)
	n.Connect(b, c, cfg)
	return e, n, a, b, c
}

type collector struct {
	got []*Packet
}

func (c *collector) Recv(p *Packet) { c.got = append(c.got, p) }

func TestUnicastDelivery(t *testing.T) {
	cfg := LinkConfig{Bandwidth: 1e6, Delay: 200 * sim.Millisecond}
	e, _, a, _, c := lineNetwork(t, cfg)
	sink := &collector{}
	c.AttachAgent(sink)

	p := &Packet{Kind: Control, Src: a.ID, Dst: c.ID, Group: NoGroup, Size: 1000, Sent: e.Now()}
	a.SendUnicast(p)
	e.Run()

	if len(sink.got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(sink.got))
	}
	// Two hops: 2 * (8ms serialization + 200ms propagation) = 416ms.
	want := 2 * (8*sim.Millisecond + 200*sim.Millisecond)
	if e.Now() != want {
		t.Errorf("delivery time %v, want %v", e.Now(), want)
	}
}

func TestLocalUnicastDelivery(t *testing.T) {
	cfg := LinkConfig{Bandwidth: 1e6, Delay: sim.Millisecond}
	e, _, a, _, _ := lineNetwork(t, cfg)
	sink := &collector{}
	a.AttachAgent(sink)
	a.SendUnicast(&Packet{Kind: Control, Src: a.ID, Dst: a.ID, Group: NoGroup, Size: 100})
	e.Run()
	if len(sink.got) != 1 {
		t.Fatalf("local delivery failed")
	}
	if a.RecvUnicast != 1 {
		t.Errorf("RecvUnicast = %d", a.RecvUnicast)
	}
}

func TestSerializationDelayOrdering(t *testing.T) {
	// Two packets sent back-to-back share the link serially.
	cfg := LinkConfig{Bandwidth: 8e5, Delay: 0} // 1000B = 10ms serialization
	e, _, a, b, _ := lineNetwork(t, cfg)
	sink := &collector{}
	b.AttachAgent(sink)
	var arrivals []sim.Time
	b.AttachAgent(agentFunc(func(p *Packet) { arrivals = append(arrivals, e.Now()) }))

	for i := 0; i < 3; i++ {
		a.SendUnicast(&Packet{Kind: Control, Src: a.ID, Dst: b.ID, Group: NoGroup, Size: 1000, Seq: int64(i)})
	}
	e.Run()
	want := []sim.Time{10 * sim.Millisecond, 20 * sim.Millisecond, 30 * sim.Millisecond}
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Errorf("arrival %d at %v, want %v", i, arrivals[i], want[i])
		}
	}
	// FIFO order preserved.
	for i, p := range sink.got {
		if p.Seq != int64(i) {
			t.Errorf("packet %d has seq %d", i, p.Seq)
		}
	}
}

type agentFunc func(*Packet)

func (f agentFunc) Recv(p *Packet) { f(p) }

func TestDropTailOverflow(t *testing.T) {
	// Queue limit 2: one in flight + 2 queued = 3 accepted, rest dropped.
	cfg := LinkConfig{Bandwidth: 8e5, Delay: 0, QueueLimit: 2}
	e, _, a, b, _ := lineNetwork(t, cfg)
	sink := &collector{}
	b.AttachAgent(sink)

	for i := 0; i < 10; i++ {
		a.SendUnicast(&Packet{Kind: Control, Src: a.ID, Dst: b.ID, Group: NoGroup, Size: 1000, Seq: int64(i)})
	}
	e.Run()

	link := a.LinkTo(b.ID)
	st := link.Stats()
	if st.Dropped != 7 {
		t.Errorf("Dropped = %d, want 7", st.Dropped)
	}
	if st.Enqueued != 3 {
		t.Errorf("Enqueued = %d, want 3", st.Enqueued)
	}
	if len(sink.got) != 3 {
		t.Errorf("delivered %d, want 3", len(sink.got))
	}
	if got := st.DropRate(); got != 0.7 {
		t.Errorf("DropRate = %g, want 0.7", got)
	}
	if st.PeakQueue != 2 {
		t.Errorf("PeakQueue = %d, want 2", st.PeakQueue)
	}
}

func TestDropObserver(t *testing.T) {
	cfg := LinkConfig{Bandwidth: 8e5, Delay: 0, QueueLimit: 1}
	e, _, a, b, _ := lineNetwork(t, cfg)
	var dropped []int64 // copy Seq, not the pointer: pooled packets recycle
	a.LinkTo(b.ID).Attach(&FuncProbe{OnDrop: func(_ *Link, p *Packet) { dropped = append(dropped, p.Seq) }})
	for i := 0; i < 5; i++ {
		a.SendUnicast(&Packet{Kind: Control, Src: a.ID, Dst: b.ID, Group: NoGroup, Size: 1000, Seq: int64(i)})
	}
	e.Run()
	if len(dropped) != 3 {
		t.Fatalf("observed %d drops, want 3", len(dropped))
	}
	// The dropped packets are the later ones (drop-tail).
	for i, seq := range dropped {
		if seq != int64(i+2) {
			t.Errorf("dropped[%d].Seq = %d, want %d", i, seq, i+2)
		}
	}
}

func TestLinkStatsReset(t *testing.T) {
	cfg := LinkConfig{Bandwidth: 1e6, Delay: 0}
	e, _, a, b, _ := lineNetwork(t, cfg)
	a.SendUnicast(&Packet{Kind: Control, Src: a.ID, Dst: b.ID, Group: NoGroup, Size: 500})
	e.Run()
	l := a.LinkTo(b.ID)
	if l.Stats().TxBytes != 500 {
		t.Fatalf("TxBytes = %d", l.Stats().TxBytes)
	}
	l.ResetStats()
	if l.Stats() != (LinkStats{}) {
		t.Fatalf("stats not reset: %+v", l.Stats())
	}
}

func TestUnroutableCounted(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e)
	a := n.AddNode("a")
	b := n.AddNode("b") // isolated
	a.SendUnicast(&Packet{Kind: Control, Src: a.ID, Dst: b.ID, Group: NoGroup, Size: 100})
	e.Run()
	if n.Unroutable != 1 {
		t.Fatalf("Unroutable = %d, want 1", n.Unroutable)
	}
}

func TestNextHopRouting(t *testing.T) {
	// Star: hub h with leaves l0..l3. Every leaf routes via h.
	e := sim.NewEngine(1)
	n := New(e)
	h := n.AddNode("hub")
	cfg := LinkConfig{Bandwidth: 1e6, Delay: sim.Millisecond}
	var leaves []*Node
	for i := 0; i < 4; i++ {
		l := n.AddNode("leaf")
		n.Connect(h, l, cfg)
		leaves = append(leaves, l)
	}
	if got := n.NextHop(leaves[0].ID, leaves[3].ID); got != h.ID {
		t.Errorf("NextHop(l0,l3) = %d, want hub %d", got, h.ID)
	}
	if got := n.NextHop(h.ID, leaves[2].ID); got != leaves[2].ID {
		t.Errorf("NextHop(hub,l2) = %d", got)
	}
	if got := n.NextHop(h.ID, h.ID); got != h.ID {
		t.Errorf("NextHop(h,h) = %d", got)
	}
}

func TestRoutingPicksShortestPath(t *testing.T) {
	// a-b-c-d plus shortcut a-d: route a->d must use the shortcut.
	e := sim.NewEngine(1)
	n := New(e)
	cfg := LinkConfig{Bandwidth: 1e6, Delay: sim.Millisecond}
	a := n.AddNode("a")
	b := n.AddNode("b")
	c := n.AddNode("c")
	d := n.AddNode("d")
	n.Connect(a, b, cfg)
	n.Connect(b, c, cfg)
	n.Connect(c, d, cfg)
	n.Connect(a, d, cfg)
	if got := n.NextHop(a.ID, d.ID); got != d.ID {
		t.Errorf("NextHop(a,d) = %d, want %d (direct)", got, d.ID)
	}
	if hops := n.PathHops(a.ID, d.ID); hops != 1 {
		t.Errorf("PathHops(a,d) = %d, want 1", hops)
	}
}

func TestPathDelayAndHops(t *testing.T) {
	cfg := LinkConfig{Bandwidth: 1e6, Delay: 200 * sim.Millisecond}
	_, n, a, _, c := lineNetwork(t, cfg)
	if got := n.PathDelay(a.ID, c.ID); got != 400*sim.Millisecond {
		t.Errorf("PathDelay = %v, want 400ms", got)
	}
	if got := n.PathHops(a.ID, c.ID); got != 2 {
		t.Errorf("PathHops = %d, want 2", got)
	}
	if got := n.PathDelay(a.ID, a.ID); got != 0 {
		t.Errorf("PathDelay self = %v", got)
	}
}

func TestPathDelayUnreachable(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e)
	a := n.AddNode("a")
	b := n.AddNode("b")
	if got := n.PathDelay(a.ID, b.ID); got != -1 {
		t.Errorf("PathDelay = %v, want -1", got)
	}
	if got := n.PathHops(a.ID, b.ID); got != -1 {
		t.Errorf("PathHops = %d, want -1", got)
	}
}

func TestRoutesInvalidatedByTopologyChange(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e)
	cfg := LinkConfig{Bandwidth: 1e6, Delay: sim.Millisecond}
	a := n.AddNode("a")
	b := n.AddNode("b")
	if n.NextHop(a.ID, b.ID) != NoNode {
		t.Fatal("unexpected route before connect")
	}
	n.Connect(a, b, cfg)
	if n.NextHop(a.ID, b.ID) != b.ID {
		t.Fatal("route not recomputed after connect")
	}
}

func TestDuplicateLinkPanics(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e)
	a := n.AddNode("a")
	b := n.AddNode("b")
	cfg := LinkConfig{Bandwidth: 1e6, Delay: 0}
	n.Connect(a, b, cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate link")
		}
	}()
	n.Connect(a, b, cfg)
}

func TestInvalidLinkConfigPanics(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e)
	a := n.AddNode("a")
	b := n.AddNode("b")
	for _, cfg := range []LinkConfig{{Bandwidth: 0}, {Bandwidth: -5}, {Bandwidth: 1, Delay: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for cfg %+v", cfg)
				}
			}()
			n.ConnectAsym(a, b, cfg)
		}()
	}
}

func TestQueueLimitDefault(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e)
	a := n.AddNode("a")
	b := n.AddNode("b")
	l := n.ConnectAsym(a, b, LinkConfig{Bandwidth: 1e6, Delay: 0})
	if l.QueueLimit != DefaultQueueLimit {
		t.Errorf("QueueLimit = %d, want %d", l.QueueLimit, DefaultQueueLimit)
	}
}

func TestSendUnicastRejectsMulticast(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e)
	a := n.AddNode("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.SendUnicast(&Packet{Group: GroupID(3)})
}

func TestPacketString(t *testing.T) {
	u := &Packet{Kind: Control, Src: 1, Dst: 2, Group: NoGroup, Size: 64}
	if u.Multicast() {
		t.Error("unicast packet reports Multicast")
	}
	m := &Packet{Kind: Data, Group: 4, Session: 1, Layer: 2, Seq: 9, Size: 1000}
	if !m.Multicast() {
		t.Error("multicast packet reports unicast")
	}
	if u.String() == "" || m.String() == "" {
		t.Error("empty String()")
	}
	if Data.String() != "data" || Control.String() != "control" || PacketKind(9).String() == "" {
		t.Error("PacketKind.String broken")
	}
}

func TestNodeAccessors(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e)
	a := n.AddNode("a")
	b := n.AddNode("b")
	c := n.AddNode("c")
	cfg := LinkConfig{Bandwidth: 1e6, Delay: 0}
	n.Connect(a, c, cfg)
	n.Connect(a, b, cfg)
	nbs := a.Neighbors()
	if len(nbs) != 2 || nbs[0] != b.ID || nbs[1] != c.ID {
		t.Errorf("Neighbors = %v, want sorted [b c]", nbs)
	}
	if len(a.Links()) != 2 {
		t.Errorf("Links = %d", len(a.Links()))
	}
	if n.NumNodes() != 3 || len(n.Nodes()) != 3 {
		t.Errorf("node count mismatch")
	}
	if n.Node(a.ID) != a {
		t.Errorf("Node lookup broken")
	}
	if a.String() == "" {
		t.Error("empty node String")
	}
	if a.LinkTo(b.ID).String() == "" {
		t.Error("empty link String")
	}
}

func TestNodeOutOfRangePanics(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Node(0)
}

func TestLinksEnumeration(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e)
	a := n.AddNode("a")
	b := n.AddNode("b")
	c := n.AddNode("c")
	cfg := LinkConfig{Bandwidth: 1e6, Delay: 0}
	n.Connect(a, b, cfg)
	n.ConnectAsym(b, c, cfg)
	if got := len(n.Links()); got != 3 {
		t.Errorf("Links = %d, want 3", got)
	}
}

// TestOutLinkTableAtEveryDegree checks the sorted out-link table through
// both lookup regimes (linear scan at router degree, binary search at hub
// degree), with links added out of neighbor order.
func TestOutLinkTableAtEveryDegree(t *testing.T) {
	for _, degree := range []int{1, 8, 9, 17, 100} {
		n := New(sim.NewEngine(1))
		hub := n.AddNode("hub")
		spokes := make([]*Node, 2*degree)
		for i := range spokes {
			spokes[i] = n.AddNode("s")
		}
		cfg := LinkConfig{Bandwidth: 1e6}
		// Even-indexed spokes only, highest first, so every insert shifts.
		for i := len(spokes) - 2; i >= 0; i -= 2 {
			n.Connect(hub, spokes[i], cfg)
		}
		nbs := hub.Neighbors()
		if len(nbs) != degree || len(hub.Links()) != degree {
			t.Fatalf("degree %d: %d neighbors, %d links", degree, len(nbs), len(hub.Links()))
		}
		for i, l := range hub.Links() {
			if l.To != nbs[i] || (i > 0 && nbs[i-1] >= nbs[i]) {
				t.Fatalf("degree %d: table not in ascending neighbor order: %v", degree, nbs)
			}
		}
		for i, s := range spokes {
			l := hub.LinkTo(s.ID)
			if connected := i%2 == 0; connected != (l != nil) {
				t.Fatalf("degree %d: LinkTo(%v) = %v, connected %v", degree, s, l, connected)
			}
			if l != nil && (l.To != s.ID || l.Reverse() != s.LinkTo(hub.ID) || l.Reverse().Reverse() != l) {
				t.Fatalf("degree %d: LinkTo/Reverse mismatch at %v", degree, s)
			}
		}
		if hub.LinkTo(hub.ID) != nil || hub.LinkTo(NoNode) != nil {
			t.Fatalf("degree %d: lookup of a non-neighbor returned a link", degree)
		}
	}
}

func TestCongestionCollapseBytesConserved(t *testing.T) {
	// Offered load 2x capacity: delivered + dropped == offered.
	cfg := LinkConfig{Bandwidth: 1e5, Delay: 10 * sim.Millisecond, QueueLimit: 5}
	e, _, a, b, _ := lineNetwork(t, cfg)
	sink := &collector{}
	b.AttachAgent(sink)
	const offered = 200
	tick := 40 * sim.Millisecond // 1000B at 1e5bps = 80ms serialization: 2x overload
	for i := 0; i < offered; i++ {
		i := i
		e.Schedule(sim.Time(i)*tick, func() {
			a.SendUnicast(&Packet{Kind: Data, Src: a.ID, Dst: b.ID, Group: NoGroup, Size: 1000, Seq: int64(i)})
		})
	}
	e.Run()
	st := a.LinkTo(b.ID).Stats()
	if st.Enqueued+st.Dropped != offered {
		t.Errorf("enqueued %d + dropped %d != offered %d", st.Enqueued, st.Dropped, offered)
	}
	if st.Delivered != st.Enqueued {
		t.Errorf("delivered %d != enqueued %d after drain", st.Delivered, st.Enqueued)
	}
	if int64(len(sink.got)) != st.Delivered {
		t.Errorf("sink got %d, link delivered %d", len(sink.got), st.Delivered)
	}
	if st.Dropped == 0 {
		t.Error("expected drops under 2x overload")
	}
	// Delivered packets keep FIFO order.
	last := int64(-1)
	for _, p := range sink.got {
		if p.Seq <= last {
			t.Fatalf("reordered delivery: %d after %d", p.Seq, last)
		}
		last = p.Seq
	}
}

func TestDropPriorityProtectsBaseLayers(t *testing.T) {
	// Saturate a slow link with mixed-layer traffic under both policies:
	// priority dropping must deliver (nearly) all base-layer packets while
	// drop-tail loses them proportionally.
	run := func(policy DropPolicy) (base, high int) {
		e := sim.NewEngine(3)
		n := New(e)
		a := n.AddNode("a")
		b := n.AddNode("b")
		l := n.ConnectAsym(a, b, LinkConfig{Bandwidth: 8e5, Delay: 0, QueueLimit: 5}) // 1000B = 10ms
		l.Policy = policy
		counts := map[int]int{}
		b.AttachAgent(agentFunc(func(p *Packet) { counts[p.Layer]++ }))
		// Offered 2x capacity: alternate layer-1 and layer-6 packets every
		// 10 ms (each stream alone fits; together they overload).
		for i := 0; i < 200; i++ {
			i := i
			layer := 1
			if i%2 == 1 {
				layer = 6
			}
			e.Schedule(sim.Time(i)*5*sim.Millisecond, func() {
				a.SendUnicast(&Packet{Kind: Data, Src: a.ID, Dst: b.ID, Group: NoGroup,
					Layer: layer, Seq: int64(i), Size: 1000})
			})
		}
		e.Run()
		return counts[1], counts[6]
	}
	dtBase, dtHigh := run(DropTail)
	prBase, prHigh := run(DropPriority)
	if prBase <= dtBase {
		t.Errorf("priority dropping did not protect the base layer: %d vs %d under drop-tail", prBase, dtBase)
	}
	if prBase < 95 {
		t.Errorf("priority dropping lost base packets: %d/100", prBase)
	}
	if prHigh >= dtHigh {
		t.Errorf("priority dropping should sacrifice the high layer: %d vs %d", prHigh, dtHigh)
	}
}

func TestDropPriorityCountersConsistent(t *testing.T) {
	e := sim.NewEngine(3)
	n := New(e)
	a := n.AddNode("a")
	b := n.AddNode("b")
	l := n.ConnectAsym(a, b, LinkConfig{Bandwidth: 8e5, Delay: 0, QueueLimit: 3})
	l.Policy = DropPriority
	delivered := 0
	b.AttachAgent(agentFunc(func(p *Packet) { delivered++ }))
	const offered = 50
	for i := 0; i < offered; i++ {
		i := i
		e.Schedule(sim.Time(i)*3*sim.Millisecond, func() {
			a.SendUnicast(&Packet{Kind: Data, Src: a.ID, Dst: b.ID, Group: NoGroup,
				Layer: i%6 + 1, Seq: int64(i), Size: 1000})
		})
	}
	e.Run()
	st := l.Stats()
	if st.Enqueued+st.Dropped != offered {
		t.Errorf("enqueued %d + dropped %d != offered %d", st.Enqueued, st.Dropped, offered)
	}
	if int64(delivered) != st.Delivered || st.Delivered != st.Enqueued {
		t.Errorf("delivered %d, stats delivered %d, enqueued %d", delivered, st.Delivered, st.Enqueued)
	}
}

func TestDropPriorityProtectsControl(t *testing.T) {
	// Control packets (layer 0) survive a queue full of media.
	e := sim.NewEngine(3)
	n := New(e)
	a := n.AddNode("a")
	b := n.AddNode("b")
	l := n.ConnectAsym(a, b, LinkConfig{Bandwidth: 8e5, Delay: 0, QueueLimit: 2})
	l.Policy = DropPriority
	var gotControl bool
	b.AttachAgent(agentFunc(func(p *Packet) {
		if p.Kind == Control {
			gotControl = true
		}
	}))
	// Fill the queue with layer-5 media, then send one control packet.
	for i := 0; i < 5; i++ {
		a.SendUnicast(&Packet{Kind: Data, Src: a.ID, Dst: b.ID, Group: NoGroup, Layer: 5, Size: 1000})
	}
	a.SendUnicast(&Packet{Kind: Control, Src: a.ID, Dst: b.ID, Group: NoGroup, Size: 64})
	e.Run()
	if !gotControl {
		t.Error("control packet lost despite priority dropping")
	}
}

// poisonCount is a Sidecar that counts how often it was poisoned.
type poisonCount struct{ n int }

func (p *poisonCount) Poison() { p.n++ }

// TestSidecarStaysWithRecycledPacket pins the side-car contract: storage
// parked on a pooled packet survives the recycle that clears every other
// field, and (in a test binary) is poisoned on the way when the packet
// carried a payload — and only then, so media packets never pay.
func TestSidecarStaysWithRecycledPacket(t *testing.T) {
	n := New(sim.NewEngine(1))
	side := &poisonCount{}
	p := n.NewPacket()
	if p.Sidecar() != nil {
		t.Fatal("fresh packet has a side-car")
	}
	p.SetSidecar(side)
	p.Payload, p.Size, p.Dst = side, 64, 3
	if n.PacketsLive() != 1 {
		t.Errorf("PacketsLive = %d with one packet out", n.PacketsLive())
	}
	p.Release()
	if n.PacketsLive() != 0 || side.n != 1 {
		t.Errorf("after release: %d live, poisoned %d times; want 0, 1", n.PacketsLive(), side.n)
	}
	q := n.NewPacket()
	if q != p || q.Sidecar() != Sidecar(side) {
		t.Fatal("recycled packet lost its struct or its side-car")
	}
	if q.Payload != nil || q.Size != 0 || q.Dst != 0 {
		t.Errorf("recycled packet not cleared: %+v", q)
	}
	q.Release() // carried no payload: media
	if side.n != 1 {
		t.Errorf("payload-free recycle poisoned the side-car (%d)", side.n)
	}
	// A literal packet is not pooled: nothing is kept, nothing counted.
	(&Packet{}).Release()
	if n.PacketsLive() != 0 || n.PacketAllocs() != 1 {
		t.Errorf("live %d, allocs %d; want 0, 1", n.PacketsLive(), n.PacketAllocs())
	}
}

// TestDetachAgent: a detached agent gets no more packets; the rest keep
// their order, also when the detach happens inside the node's own delivery
// loop (nested deliveries included) — no sibling skipped or called twice.
func TestDetachAgent(t *testing.T) {
	e, _, a, b, _ := lineNetwork(t, LinkConfig{Bandwidth: 1e6, Delay: sim.Millisecond})
	var calls []string
	mk := func(name string, then func()) Agent {
		// A pointer, not an agentFunc: DetachAgent compares agents.
		return &struct{ agentFunc }{func(p *Packet) {
			calls = append(calls, name)
			if then != nil {
				then()
			}
		}}
	}
	send := func(n *Node) {
		calls = nil
		n.SendUnicast(&Packet{Kind: Control, Src: n.ID, Dst: n.ID, Group: NoGroup, Size: 100})
	}
	var w, x, y, z Agent
	x = mk("x", nil)
	y = mk("y", func() { b.DetachAgent(y); b.DetachAgent(x) }) // itself and an earlier sibling
	z = mk("z", nil)
	w = mk("w", nil)
	for _, ag := range []Agent{x, y, z, w} {
		b.AttachAgent(ag)
	}
	send(b)
	if got := fmt.Sprint(calls); got != "[x y z w]" {
		t.Errorf("delivery with detaches inside it called %s, want [x y z w]", got)
	}
	send(b)
	if got := fmt.Sprint(calls); got != "[z w]" || b.NumAgents() != 2 {
		t.Errorf("after the detaches: called %s with %d agents, want [z w] and 2", got, b.NumAgents())
	}
	b.DetachAgent(z) // outside any delivery
	b.DetachAgent(z) // unknown agents are ignored
	send(b)
	if got := fmt.Sprint(calls); got != "[w]" || b.NumAgents() != 1 {
		t.Errorf("after detaching z: called %s with %d agents", got, b.NumAgents())
	}

	// A nested delivery (an agent sending to its own node) detaching a
	// sibling the outer loop has yet to reach: that sibling is skipped by
	// both loops, everyone else runs once per delivery.
	var p, q, r Agent
	nested := false
	p = mk("p", func() {
		if !nested {
			nested = true
			a.SendUnicast(&Packet{Kind: Control, Src: a.ID, Dst: a.ID, Group: NoGroup, Size: 100})
		}
	})
	q = mk("q", func() {
		if nested {
			a.DetachAgent(r)
		}
	})
	r = mk("r", nil)
	for _, ag := range []Agent{p, q, r} {
		a.AttachAgent(ag)
	}
	send(a)
	if got := fmt.Sprint(calls); got != "[p p q q]" || a.NumAgents() != 2 {
		t.Errorf("nested delivery called %s with %d agents left, want [p p q q] and 2", got, a.NumAgents())
	}
	e.Run()
}

// released counts Release calls: a payload with pooled storage of its own.
type released struct{ n int }

func (r *released) Release() { r.n++ }

// TestDropReleasesUnicastPayload: every way the network discards a unicast
// packet hands a Release-able payload back exactly once, after the probes
// saw it; a dropped multicast packet's shared payload is left alone.
func TestDropReleasesUnicastPayload(t *testing.T) {
	ctl := func(src, dst *Node, pl *released) *Packet {
		return &Packet{Kind: Control, Src: src.ID, Dst: dst.ID, Group: NoGroup, Size: 1000, Payload: pl}
	}

	// Queue overflow, drop-tail: the arrival.
	e, _, a, b, _ := lineNetwork(t, LinkConfig{Bandwidth: 8e5, QueueLimit: 1})
	seen := 0
	a.LinkTo(b.ID).Attach(&FuncProbe{OnDrop: func(_ *Link, p *Packet) {
		if p.Payload.(*released).n == 0 {
			seen++ // the probe sees the payload before its release
		}
	}})
	pls := make([]*released, 4)
	for i := range pls {
		pls[i] = &released{}
		a.SendUnicast(ctl(a, b, pls[i]))
	}
	e.Run()
	if pls[0].n != 0 || pls[1].n != 0 || pls[2].n != 1 || pls[3].n != 1 || seen != 2 {
		t.Errorf("drop-tail: releases %d %d %d %d, %d seen by the probe first", pls[0].n, pls[1].n, pls[2].n, pls[3].n, seen)
	}

	// Queue overflow, priority dropping: the queued media victim.
	e, _, a, b, _ = lineNetwork(t, LinkConfig{Bandwidth: 8e5, QueueLimit: 1, Policy: DropPriority})
	media := &released{}
	a.SendUnicast(ctl(a, b, &released{}))                                                                          // on the wire
	a.SendUnicast(&Packet{Kind: Data, Src: a.ID, Dst: b.ID, Group: NoGroup, Layer: 3, Size: 1000, Payload: media}) // queued
	arrival := &released{}
	a.SendUnicast(ctl(a, b, arrival)) // evicts the layer-3 packet
	e.Run()
	if media.n != 1 || arrival.n != 0 {
		t.Errorf("priority drop: victim released %d times, arrival %d", media.n, arrival.n)
	}

	// A failed link: what it queued and carried, and what arrives after.
	e, _, a, b, _ = lineNetwork(t, LinkConfig{Bandwidth: 8e5, Delay: 50 * sim.Millisecond, QueueLimit: 4})
	pls = pls[:0]
	for i := 0; i < 4; i++ {
		pls = append(pls, &released{})
		a.SendUnicast(ctl(a, b, pls[i]))
	}
	e.RunUntil(15 * sim.Millisecond) // one in flight, one serializing, two queued
	a.LinkTo(b.ID).SetDown()
	late := &released{}
	a.SendUnicast(ctl(a, b, late))
	e.Run()
	for i, pl := range pls {
		if pl.n != 1 {
			t.Errorf("down link: carried packet %d released %d times", i, pl.n)
		}
	}
	if late.n != 1 {
		t.Errorf("down link: arrival released %d times", late.n)
	}

	// Unroutable.
	e = sim.NewEngine(1)
	n := New(e)
	x, y := n.AddNode("x"), n.AddNode("y")
	lost := &released{}
	x.SendUnicast(ctl(x, y, lost))
	if lost.n != 1 {
		t.Errorf("unroutable: released %d times", lost.n)
	}

	// Multicast: never released by the network.
	e, _, a, b, _ = lineNetwork(t, LinkConfig{Bandwidth: 8e5, QueueLimit: 1})
	shared := &released{}
	l := a.LinkTo(b.ID)
	for i := 0; i < 4; i++ {
		l.Send(&Packet{Kind: Data, Src: a.ID, Dst: NoNode, Group: 0, Size: 1000, Payload: shared})
	}
	e.Run()
	if l.Stats().Dropped != 2 || shared.n != 0 {
		t.Errorf("multicast: %d drops released the shared payload %d times", l.Stats().Dropped, shared.n)
	}
}
