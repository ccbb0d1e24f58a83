package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"toposense/internal/sim"
)

// The next-hop memo (Node.route) must answer exactly what NextHop plus
// LinkTo would. These scripts run unicast traffic over random forests and
// small meshes while links flap and nodes join, and a network-wide probe
// recomputes every hop's link from scratch.

// Script bytes: a three-byte header, then three bytes per operation.
//
//	header: flags (bit 0 mesh, bits 1-2 chords), node count, shape seed
//	op:     k, a, b  with k&7 the kind and k>>3 the gap before it in
//	        250 µs steps
//
// Kinds: 0-3 send a packet from node a to node b, 4 SetDown link a (and
// its reverse when b is odd), 5 SetUp link a (same), 6 AddNode, connected
// to node a unless b%4 == 0, 7 a burst of three packets from a to b. Node
// and link indices are taken modulo the current counts; links are numbered
// in Network.Links order.
const (
	rcSend, rcDown, rcUp, rcAdd, rcBurst = 0, 4, 5, 6, 7
	maxRouteOps                          = 200
)

// rcOp encodes one operation after gap steps of 250 µs.
func rcOp(kind, gap, a, b byte) []byte { return []byte{kind | gap<<3, a, b} }

// routeCacheSeeds are FuzzRouteCache's corpus, and TestRouteCacheRandomScripts
// runs each of them.
var routeCacheSeeds = func() [][]byte {
	cat := func(parts ...[]byte) (out []byte) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	return [][]byte{
		// A four-node ring 0-1-2-3-0. Node 0 reaches 2 through 1 and holds
		// it; the 0-1 flap moves that route to 3 and back, and each send
		// after a flap must follow the new route, not the memo.
		cat([]byte{1, 2, 0},
			rcOp(rcSend, 0, 0, 2), rcOp(rcSend, 8, 0, 2),
			rcOp(rcDown, 8, 0, 1), rcOp(rcSend, 1, 0, 2), rcOp(rcSend, 8, 0, 2),
			rcOp(rcUp, 8, 0, 1), rcOp(rcSend, 1, 0, 2), rcOp(rcSend, 8, 0, 2)),
		// The same ring, one direction at a time: node 1 holds 3 through 0,
		// then 0->1 fails alone (1 keeps its route, 0 loses one) and 1->0
		// after it.
		cat([]byte{1, 2, 0},
			rcOp(rcSend, 0, 1, 3), rcOp(rcSend, 0, 0, 2),
			rcOp(rcDown, 4, 0, 0), rcOp(rcSend, 1, 1, 3), rcOp(rcSend, 0, 0, 2),
			rcOp(rcDown, 4, 2, 0), rcOp(rcSend, 1, 1, 3), rcOp(rcSend, 0, 0, 2),
			rcOp(rcUp, 4, 0, 0), rcOp(rcUp, 0, 2, 0), rcOp(rcSend, 1, 1, 3), rcOp(rcSend, 0, 0, 2)),
		// A forest in tree-mode routing: sends within and across trees
		// (unroutable), a node added with no link (unroutable) and one
		// added with a link, then sends toward both.
		cat([]byte{0, 10, 7},
			rcOp(rcSend, 0, 3, 9), rcOp(rcSend, 0, 9, 3), rcOp(rcSend, 2, 0, 11), rcOp(rcSend, 0, 5, 1),
			rcOp(rcAdd, 2, 4, 0), rcOp(rcSend, 1, 4, 12), rcOp(rcSend, 0, 12, 4),
			rcOp(rcAdd, 2, 4, 1), rcOp(rcSend, 1, 13, 0), rcOp(rcSend, 0, 0, 13), rcOp(rcSend, 0, 3, 9)),
		// A forest's first flap switches it to the dense tables and cuts a
		// tree in two; the second flap is dense from the start. Sends
		// follow each.
		cat([]byte{0, 8, 3},
			rcOp(rcSend, 0, 0, 9), rcOp(rcSend, 0, 9, 0), rcOp(rcSend, 0, 4, 7),
			rcOp(rcDown, 4, 3, 1), rcOp(rcSend, 0, 0, 9), rcOp(rcSend, 0, 9, 0), rcOp(rcSend, 0, 4, 7),
			rcOp(rcDown, 4, 6, 1), rcOp(rcSend, 0, 0, 9), rcOp(rcSend, 0, 4, 7),
			rcOp(rcUp, 4, 3, 1), rcOp(rcSend, 0, 0, 9), rcOp(rcSend, 0, 9, 0),
			rcOp(rcUp, 4, 6, 1), rcOp(rcSend, 0, 4, 7)),
		// A meshed ring with chords under bursts: queues overflow while
		// links fail with packets in flight, a node joins mid-outage.
		cat([]byte{7, 12, 5},
			rcOp(rcBurst, 0, 0, 6), rcOp(rcBurst, 0, 6, 0), rcOp(rcBurst, 1, 3, 9),
			rcOp(rcDown, 2, 1, 1), rcOp(rcBurst, 0, 0, 6), rcOp(rcBurst, 1, 3, 9),
			rcOp(rcAdd, 1, 2, 1), rcOp(rcBurst, 0, 14, 8), rcOp(rcDown, 1, 5, 0),
			rcOp(rcBurst, 1, 8, 14), rcOp(rcUp, 3, 1, 1), rcOp(rcBurst, 0, 0, 6),
			rcOp(rcUp, 2, 5, 0), rcOp(rcBurst, 0, 6, 0)),
	}
}()

// routeRun is what one script exercised.
type routeRun struct {
	sent, unroutable, flaps, adds int
}

// runRouteScript builds the script's network, plays its operations on the
// engine (so packets are in flight when links flap and nodes join) and
// checks, through a network-wide probe, that every link a routed packet is
// offered to is n.LinkTo(net.NextHop(n.ID, dst)) computed afresh. After the
// run drains, every packet must be accounted for: delivered, dropped by a
// link, or counted in Unroutable.
func runRouteScript(t *testing.T, data []byte) (run routeRun) {
	t.Helper()
	if len(data) < 3 {
		return run
	}
	e := sim.NewEngine(1)
	net := New(e)
	cfg := LinkConfig{Bandwidth: 1e6, Delay: sim.Millisecond, QueueLimit: 4}
	n := 2 + int(data[1])%23
	rng := rand.New(rand.NewSource(int64(data[0])<<8 | int64(data[2])))
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = net.AddNode(fmt.Sprint("n", i))
	}
	if data[0]&1 == 0 {
		for i := 1; i < n; i++ {
			if rng.Intn(6) != 0 {
				net.Connect(nodes[i], nodes[rng.Intn(i)], cfg)
			}
		}
	} else {
		for i := 0; i < n; i++ {
			if j := (i + 1) % n; nodes[i].LinkTo(NodeID(j)) == nil && i != j {
				net.Connect(nodes[i], nodes[j], cfg)
			}
		}
		for c := int(data[0]>>1) & 3; c > 0; c-- {
			if a, b := rng.Intn(n), rng.Intn(n); a != b && nodes[a].LinkTo(NodeID(b)) == nil {
				net.Connect(nodes[a], nodes[b], cfg)
			}
		}
	}

	desc := fmt.Sprintf("script % x", data)
	flapping, drops := false, 0
	check := func(l *Link, p *Packet) {
		if want := net.Node(l.From).LinkTo(net.NextHop(l.From, p.Dst)); l != want {
			t.Fatalf("%s: at %v node %d sent a packet for %d on %v, routing says %v", desc, e.Now(), l.From, p.Dst, l, want)
		}
	}
	net.AttachProbe(&FuncProbe{
		OnEnqueue: check,
		OnDrop: func(l *Link, p *Packet) {
			drops++
			if !flapping { // SetDown's own discards are not routing decisions
				check(l, p)
			}
		},
	})
	send := func(a, b byte) {
		src, dst := net.Node(NodeID(int(a)%net.NumNodes())), NodeID(int(b)%net.NumNodes())
		p := net.NewPacket()
		p.Kind, p.Src, p.Dst, p.Group, p.Size = Control, src.ID, dst, NoGroup, 100
		src.SendUnicast(p)
		p.Release()
		run.sent++
	}
	flap := func(a, b byte, down bool) {
		links := net.Links()
		if len(links) == 0 {
			return
		}
		ls := links[int(a)%len(links):][:1]
		if r := ls[0].Reverse(); r != nil && b&1 == 1 {
			ls = append(ls, r)
		}
		flapping = true
		for _, l := range ls {
			if down {
				l.SetDown()
			} else {
				l.SetUp()
			}
		}
		flapping = false
		run.flaps++
	}
	ops := data[3:]
	if len(ops) > 3*maxRouteOps {
		ops = ops[:3*maxRouteOps]
	}
	var at sim.Time
	for ; len(ops) >= 3; ops = ops[3:] {
		k, a, b := ops[0], ops[1], ops[2]
		at += sim.Time(k>>3) * 250 * sim.Microsecond
		e.At(at, sim.Func(func() {
			switch k & 7 {
			case rcDown:
				flap(a, b, true)
			case rcUp:
				flap(a, b, false)
			case rcAdd:
				old := net.NumNodes()
				nn := net.AddNode(fmt.Sprint("n", old))
				if b%4 != 0 {
					net.Connect(nn, net.Node(NodeID(int(a)%old)), cfg)
				}
				run.adds++
			case rcBurst:
				send(a, b)
				send(a, b)
				send(a, b)
			default:
				send(a, b)
			}
		}))
	}
	e.Run()

	var delivered int64
	for _, nd := range net.Nodes() {
		delivered += nd.RecvUnicast
	}
	run.unroutable = int(net.Unroutable)
	if got := delivered + int64(drops) + net.Unroutable; got != int64(run.sent) {
		t.Fatalf("%s: %d sent, %d delivered + %d dropped + %d unroutable = %d", desc, run.sent, delivered, drops, net.Unroutable, got)
	}
	if live := net.PacketsLive(); live != 0 {
		t.Fatalf("%s: %d pooled packets never came back", desc, live)
	}
	return run
}

// TestRouteCacheRandomScripts runs FuzzRouteCache's seeds, then random
// scripts over every shape the header can draw.
func TestRouteCacheRandomScripts(t *testing.T) {
	var total routeRun
	add := func(r routeRun) {
		total.sent += r.sent
		total.unroutable += r.unroutable
		total.flaps += r.flaps
		total.adds += r.adds
	}
	for _, data := range routeCacheSeeds {
		add(runRouteScript(t, data))
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3+3*(5+rng.Intn(60)))
		rng.Read(data)
		add(runRouteScript(t, data))
	}
	t.Logf("%d packets sent, %d unroutable, %d flaps, %d nodes added", total.sent, total.unroutable, total.flaps, total.adds)
	if total.unroutable == 0 || total.flaps == 0 || total.adds == 0 {
		t.Errorf("scripts exercised %+v; want unroutable packets, flaps and added nodes", total)
	}
}

// FuzzRouteCache lets the native fuzzer search for a script on which the
// next-hop memo and a fresh NextHop + LinkTo disagree.
func FuzzRouteCache(f *testing.F) {
	for _, data := range routeCacheSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runRouteScript(t, data) })
}
