package experiments

import (
	"testing"

	"toposense/internal/controller"
	"toposense/internal/core"
	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/receiver"
	"toposense/internal/sim"
	"toposense/internal/source"
	"toposense/internal/topodisc"
	"toposense/internal/trace"

	"math/rand"
)

// TestFigure1MotivatingExample reproduces the paper's introductory example
// (its Figure 1) end to end:
//
//	"Assume that layer 1 requires a bandwidth of 32Kbps and every
//	subsequent layer requires twice the bandwidth ... the receivers at
//	nodes 3 and 4 can hope to receive layers 1 and 1,2 respectively ...
//	Suppose the receiver at node 4 tries to subscribe to one more layer.
//	This will result in congestion at node 2 and hence losses for both
//	node 3 and node 4. A congestion control mechanism which is unaware of
//	the topological relationship between nodes 3 and 4 may take incorrect
//	decisions to control losses at node 3."
//
// We build exactly that tree, start node 4 over-subscribed at 3 layers,
// and check that (a) the over-subscription hurts BOTH receivers, and (b)
// TopoSense pulls node 4 down to its 2-layer optimum while leaving node 3
// at its base layer — the correct, topology-aware decision.
func TestFigure1MotivatingExample(t *testing.T) {
	e := sim.NewEngine(42)
	n := netsim.New(e)
	src := n.AddNode("node1-source")
	n2 := n.AddNode("node2")
	n3 := n.AddNode("node3")
	n4 := n.AddNode("node4")
	delay := 100 * sim.Millisecond
	// The link into node 2 carries the union of the subtree's layers:
	// sized for layers 1+2 (96 Kbps) with headroom.
	n.Connect(src, n2, netsim.LinkConfig{Bandwidth: 100e3, Delay: delay})
	// Node 3's last mile carries only the base layer.
	n.Connect(n2, n3, netsim.LinkConfig{Bandwidth: 34e3, Delay: delay})
	// Node 4's last mile carries layers 1+2.
	n.Connect(n2, n4, netsim.LinkConfig{Bandwidth: 100e3, Delay: delay})

	d := mcast.NewDomain(n)
	s := source.New(n, d, src, source.Config{Session: 0})
	tool := topodisc.NewTool(n, d, []int{0})
	alg := core.New(core.NewConfig(source.Rates(6)), rand.New(rand.NewSource(1)))
	ctrl := controller.New(n, d, src, tool, alg)

	rx3 := receiver.New(n, d, n3, receiver.Config{
		Session: 0, MaxLayers: 6, InitialLevel: 1, Controller: src.ID,
	})
	// Node 4 starts over-subscribed to 3 layers — one more than its share.
	rx4 := receiver.New(n, d, n4, receiver.Config{
		Session: 0, MaxLayers: 6, InitialLevel: 3, Controller: src.ID,
	})

	// Track each receiver's loss during the initial over-subscribed phase.
	sampler := trace.NewSampler(e, 500*sim.Millisecond)
	sampler.Probe("loss3", func() float64 { return rx3.LastLoss })
	sampler.Probe("loss4", func() float64 { return rx4.LastLoss })
	sampler.Start()

	s.Start()
	ctrl.Start()
	rx3.Start()
	rx4.Start()

	// Phase 1: the first seconds, before control takes hold. Node 4's
	// extra layer congests the shared link into node 2: BOTH receivers
	// lose packets, exactly as the paper argues.
	e.RunUntil(8 * sim.Second)
	early3 := sampler.Series("loss3").Window(3*sim.Second, 8*sim.Second).Max()
	early4 := sampler.Series("loss4").Window(3*sim.Second, 8*sim.Second).Max()
	if early3 < 0.05 {
		t.Errorf("node 3 unharmed by node 4's over-subscription (max loss %.3f) — the shared bottleneck is not binding", early3)
	}
	if early4 < 0.05 {
		t.Errorf("node 4 unharmed by its own over-subscription (max loss %.3f)", early4)
	}

	// Phase 2: let TopoSense act. The topologically correct outcome: node
	// 4 back at 2 layers, node 3 at 1 — judged by the modal (most common)
	// sampled level over the final minute, so a probe in flight at the
	// instant the clock stops does not flake the test.
	lvl3 := trace.NewSeries("lvl3")
	lvl4 := trace.NewSeries("lvl4")
	lvlTick := sim.Every(e, sim.Second, func() {
		lvl3.Add(e.Now(), float64(rx3.Level()))
		lvl4.Add(e.Now(), float64(rx4.Level()))
	})
	e.RunUntil(120 * sim.Second)
	lvlTick.Stop()
	if got := modalValue(lvl3.Window(60*sim.Second, 120*sim.Second)); got != 1 {
		t.Errorf("node 3's modal level = %d, want its base layer", got)
	}
	if got := modalValue(lvl4.Window(60*sim.Second, 120*sim.Second)); got != 2 {
		t.Errorf("node 4's modal level = %d, want 2 (its own share)", got)
	}
	// Steady-state loss is near zero; node 3's periodic one-layer probes
	// (back-off expiry -> try layer 2 -> retreat) briefly exceed its thin
	// 34 Kbps last mile, so allow a small mean.
	late3 := sampler.Series("loss3").Window(100*sim.Second, 120*sim.Second).Mean()
	late4 := sampler.Series("loss4").Window(100*sim.Second, 120*sim.Second).Mean()
	if late3 > 0.08 || late4 > 0.08 {
		t.Errorf("residual loss after control: node3 %.3f, node4 %.3f", late3, late4)
	}
}

// modalValue returns the most common integer value of a series.
func modalValue(s *trace.Series) int {
	counts := map[int]int{}
	for i := 0; i < s.Len(); i++ {
		_, v := s.At(i)
		counts[int(v)]++
	}
	best, bestN := 0, -1
	for v, n := range counts {
		if n > bestN {
			best, bestN = v, n
		}
	}
	return best
}
