package controller

import (
	"fmt"
	"math/rand"
	"testing"

	"toposense/internal/core"
	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/receiver"
	"toposense/internal/report"
	"toposense/internal/sim"
	"toposense/internal/source"
	"toposense/internal/topodisc"
)

// flatWorld is the flat control plane with nothing else: a controller two
// hops from every one of rxs real receivers, which tick and report but are
// sent no media.
func flatWorld(tb testing.TB, rxs int) (*sim.Engine, *Controller, []*receiver.Receiver) {
	tb.Helper()
	e := sim.NewEngine(1)
	n := netsim.New(e)
	ctrlNode := n.AddNode("ctrl")
	fast := netsim.LinkConfig{Bandwidth: 1e9, Delay: sim.Millisecond, QueueLimit: 4096}
	var nodes []*netsim.Node
	for len(nodes) < rxs {
		mid := n.AddNode("mid")
		n.Connect(ctrlNode, mid, fast)
		for i := 0; i < 32 && len(nodes) < rxs; i++ {
			rx := n.AddNode(fmt.Sprintf("rx%d", len(nodes)))
			n.Connect(mid, rx, fast)
			nodes = append(nodes, rx)
		}
	}
	d := mcast.NewDomain(n)
	for l := 1; l <= source.DefaultLayers; l++ {
		d.RegisterGroup(0, l, ctrlNode.ID)
	}
	tool := topodisc.NewTool(n, d, []int{0})
	alg := core.New(core.NewConfig(source.Rates(source.DefaultLayers)), rand.New(rand.NewSource(1)))
	c := New(n, d, ctrlNode, tool, alg)
	var out []*receiver.Receiver
	for _, node := range nodes {
		rx := receiver.New(n, d, node, receiver.Config{
			Session: 0, MaxLayers: source.DefaultLayers, InitialLevel: 1, Controller: ctrlNode.ID,
		})
		rx.Start()
		out = append(out, rx)
	}
	return e, c, out
}

// BenchmarkFlatReportPath is one report end to end on the flat plane: the
// receiver's tick fills a pooled packet, two link hops carry it, the
// controller folds it into the receiver's slot. One op is one report; in
// steady state nothing on the path may allocate.
func BenchmarkFlatReportPath(b *testing.B) {
	const rxs = 256
	e, c, _ := flatWorld(b, rxs)
	// Registrations, the desynchronised first ticks, pool and slab growth.
	e.RunUntil(4 * receiver.DefaultReportInterval)
	before := c.ReportsRecv
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += rxs {
		e.RunUntil(e.Now() + receiver.DefaultReportInterval)
	}
	b.StopTimer()
	if got := c.ReportsRecv - before; got < int64(b.N) {
		b.Fatalf("%d reports consumed in a benchmark of %d", got, b.N)
	}
}

// BenchmarkFlatResend is the flat plane's per-pass fan-out: one op is one
// suggestion on a pooled packet plus its share of the pass's mid-interval
// repeat, one timer that fires half an interval later and sends the list
// again. No pass runs, so the fan-out is driven as a pass drives it. Nothing
// on the path may allocate.
func BenchmarkFlatResend(b *testing.B) {
	const rxs = 256
	e, c, receivers := flatWorld(b, rxs)
	e.RunUntil(2 * receiver.DefaultReportInterval)
	var sugs []core.Suggestion
	for _, rx := range receivers {
		sg := core.Suggestion{Node: rx.Node().ID, Session: 0, Level: 1}
		if _, gen := c.registration(sg.Session, sg.Node); gen == 0 {
			b.Fatalf("receiver at node %d never registered", sg.Node)
		}
		sugs = append(sugs, sg)
	}
	round := func(k int) {
		c.fanOut(sugs[:k])
		e.RunUntil(e.Now() + c.interval)
	}
	round(rxs) // warm the pools
	sent := c.SuggestionsSent
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += rxs {
		round(min(rxs, b.N-done))
	}
	b.StopTimer()
	if got := c.SuggestionsSent - sent; got != 2*int64(b.N) {
		b.Fatalf("%d suggestions sent for %d ops, want each sent and repeated", got, b.N)
	}
}

// TestPooledSuggestionReachesReceiver drives one flat suggestion through the
// real path and checks the receiver obeyed it and the packet went back to
// the pool.
func TestPooledSuggestionReachesReceiver(t *testing.T) {
	e, c, receivers := flatWorld(t, 3)
	e.RunUntil(receiver.DefaultReportInterval)
	rx := receivers[1]
	c.sendSuggestion(report.SugEntry{Node: rx.Node().ID, Session: 0, Level: 2})
	e.RunUntil(e.Now() + 10*sim.Millisecond)
	if rx.SuggestionsRecv != 1 || rx.Level() != 2 {
		t.Errorf("receiver got %d suggestions, level %d; want 1, 2", rx.SuggestionsRecv, rx.Level())
	}
	for _, other := range []*receiver.Receiver{receivers[0], receivers[2]} {
		if other.SuggestionsRecv != 0 {
			t.Error("suggestion delivered to the wrong receiver")
		}
	}
	if live := c.net.PacketsLive(); live != 0 {
		t.Errorf("%d pooled packets still live after delivery", live)
	}
}

// BenchmarkSteadyDiscoveryPass is one decision interval of the flat plane
// over a tree that holds still: each discovery period records the last walk
// again, and the pass validates that snapshot and hands it to the algorithm
// as it is, with the reports in and the suggestions out. One op is one
// interval; nothing on it may allocate.
func BenchmarkSteadyDiscoveryPass(b *testing.B) {
	const rxs = 256
	e, c, _ := flatWorld(b, rxs)
	c.Start()
	// Registrations, grafts, the first walks, pool and slab growth.
	e.RunUntil(10 * c.interval)
	snap, passes := c.tool.Discover(0), c.StepsRun
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + c.interval)
	}
	b.StopTimer()
	if got := c.tool.Discover(0); got != snap || snap.Empty() {
		b.Fatalf("the tree was walked again during the benchmark (empty %v)", snap.Empty())
	}
	if got := c.StepsRun - passes; got != int64(b.N) {
		b.Fatalf("%d passes in %d intervals", got, b.N)
	}
}
