package netsim

import (
	"math/rand"
	"runtime"
	"testing"

	"toposense/internal/sim"
)

// benchChain builds a linear chain of n+1 nodes and returns the endpoints.
// Links are fast enough that serialization, not propagation, dominates, and
// queues are deep enough that nothing drops — every injected packet crosses
// every hop.
func benchChain(e *sim.Engine, hops, queue int) (*Network, *Node, *Node) {
	net := New(e)
	prev := net.AddNode("n0")
	first := prev
	for i := 1; i <= hops; i++ {
		cur := net.AddNode("n")
		net.Connect(prev, cur, LinkConfig{
			Bandwidth:  1e9,
			Delay:      sim.Millisecond,
			QueueLimit: queue,
		})
		prev = cur
	}
	return net, first, prev
}

// benchInjectPaced drives n packets through the chain from inside the
// simulation, one new packet per serialization slot (8 µs for 1000 B at
// 1 Gbps), so the first link never queues more than a handful and — in the
// pooled variant — delivered packets are recycled while later ones are still
// being injected. mk builds (and sends) one packet.
func benchInjectPaced(e *sim.Engine, n int, mk func(i int)) {
	const gap = 8 * sim.Microsecond
	sent := 0
	var inject func()
	inject = func() {
		mk(sent)
		sent++
		if sent < n {
			e.Schedule(gap, inject)
		}
	}
	e.Schedule(0, inject)
	e.Run()
}

// linkEventsPerHop is the scheduler events the links spent per packet-hop
// after benchInjectPaced drove n packets across hops links: everything the
// engine fired less the n injection events.
func linkEventsPerHop(e *sim.Engine, n, hops int) float64 {
	return float64(e.Fired()-uint64(n)) / float64(n*hops)
}

// reportChain checks that every packet crossed the chain and that an
// uncongested hop still costs one event, then reports the benchmark's
// metrics.
func reportChain(b *testing.B, e *sim.Engine, dst *Node, hops int) {
	b.Helper()
	if got := dst.RecvUnicast; got != int64(b.N) {
		b.Fatalf("delivered %d packets, want %d", got, b.N)
	}
	perHop := linkEventsPerHop(e, b.N, hops)
	if perHop > 1 {
		b.Fatalf("%.3f link events per hop on an uncongested chain, want 1", perHop)
	}
	b.ReportMetric(perHop, "events/hop")
	b.ReportMetric(float64(b.N*hops)/b.Elapsed().Seconds(), "hops/s")
}

// BenchmarkChainForward pushes packets through an 8-hop chain and reports
// per-packet cost of the full forwarding plane: queueing, serialization,
// propagation and per-hop delivery. This is the packet-plane counterpart of
// the engine's schedule/fire benchmark. Packets are heap literals, so the
// one allocation per op is the packet itself.
func BenchmarkChainForward(b *testing.B) {
	const hops = 8
	b.ReportAllocs()
	e := sim.NewEngine(1)
	_, src, dst := benchChain(e, hops, 64)
	b.ResetTimer()
	benchInjectPaced(e, b.N, func(i int) {
		src.SendUnicast(&Packet{Kind: Control, Src: src.ID, Dst: dst.ID, Group: NoGroup, Size: 1000})
	})
	b.StopTimer()
	reportChain(b, e, dst, hops)
}

// BenchmarkChainForwardPooled is BenchmarkChainForward with packets drawn
// from the network's pool instead of allocated per send. Once the pool
// covers the ~1000 packets in flight across the chain's propagation delay,
// the steady state forwards with zero allocations per packet.
func BenchmarkChainForwardPooled(b *testing.B) {
	const hops = 8
	b.ReportAllocs()
	e := sim.NewEngine(1)
	net, src, dst := benchChain(e, hops, 64)
	b.ResetTimer()
	benchInjectPaced(e, b.N, func(i int) {
		p := net.NewPacket()
		p.Kind = Control
		p.Src = src.ID
		p.Dst = dst.ID
		p.Group = NoGroup
		p.Size = 1000
		src.SendUnicast(p)
		p.Release()
	})
	b.StopTimer()
	reportChain(b, e, dst, hops)
}

// BenchmarkSaturatedLink offers one link packets at twice its bandwidth: the
// queue is full, the transmitter never idles, and every op is one offered
// packet (half are drop-tailed, half cross the link on one delivery event).
// It reports the ring's capacity and fails when that exceeds the link's
// bound or when the steady state allocates: a saturated link's memory must
// not depend on how long it has been saturated.
func BenchmarkSaturatedLink(b *testing.B) {
	_, _, offer, peak, bound := saturatedLink(b)
	offer(2000) // ring, packet pool and event slots reach their steady size
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	offer(b.N)
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if perOp := (m1.TotalAlloc - m0.TotalAlloc) / uint64(b.N); perOp > 0 {
		b.Fatalf("%d B/op on a saturated link in steady state, want 0", perOp)
	}
	if *peak > bound {
		b.Fatalf("ring capacity %d after %d packets, want at most %d", *peak, 2000+b.N, bound)
	}
	b.ReportMetric(float64(*peak), "ring-cap")
}

// BenchmarkColdDeliveries is link delivery with a working set no cache
// holds, as on a 10⁴-receiver tree, where every other benchmark here keeps
// its few links in L1: a hub fans each packet out over 20 480 links, 6.5 MB
// of links and 2.9 MB of leaf nodes against a 2 MB L2, in an order shuffled
// once, so consecutive deliveries read links far apart in memory. A
// round's deliveries all fall on one instant and ride one lane, each
// reading its link and its leaf. One op is one round, a Send on every link
// and then every delivery; ns/delivery is the time per link. The steady
// state allocates nothing.
func BenchmarkColdDeliveries(b *testing.B) {
	const links = 20480
	e := sim.NewEngine(1)
	net := New(e)
	hub := net.AddNode("hub")
	out := make([]*Link, links)
	for i := range out {
		out[i] = net.ConnectAsym(hub, net.AddNode("leaf"), LinkConfig{Bandwidth: 1e9, Delay: sim.Millisecond})
	}
	rand.New(rand.NewSource(1)).Shuffle(links, func(i, j int) { out[i], out[j] = out[j], out[i] })
	p := net.NewPacket()
	p.Kind, p.Src, p.Group, p.Size = Data, hub.ID, GroupID(1), 1000
	rounds := 0
	round := func() {
		for _, l := range out {
			l.Send(p)
		}
		e.Run()
		rounds++
	}
	round() // the lane's chunks reach their steady number
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(2, round); allocs != 0 {
		b.Fatalf("%.0f allocations per round of %d deliveries, want 0", allocs, links)
	}
	if st := out[0].Stats(); st.Delivered != int64(rounds) || st.Dropped != 0 {
		b.Fatalf("link delivered %d packets and dropped %d over %d rounds", st.Delivered, st.Dropped, rounds)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*links), "ns/delivery")
	p.Release()
}
