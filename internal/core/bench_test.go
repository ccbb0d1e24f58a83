package core

import (
	"fmt"
	"testing"

	"toposense/internal/sim"
)

// topologyB builds the controller's image of Topology B: sessions sessions
// rooted at distinct sources, all funneling through the shared backbone
// X(0) → Y(1) and fanning out to one receiver each — the same shape the
// Topology B generator hands the discovery layer, with the dense node
// numbering a real network produces.
func topologyB(sessions int) ([]*Topology, []ReceiverState) {
	topos := make([]*Topology, 0, sessions)
	reports := make([]ReceiverState, 0, sessions)
	const x, y = NodeID(0), NodeID(1)
	for s := 0; s < sessions; s++ {
		src := NodeID(2 + 2*s)
		rx := NodeID(3 + 2*s)
		topos = append(topos, NewTopology(s, src, map[NodeID]NodeID{x: src, y: x, rx: y}, map[NodeID]bool{rx: true}))
		reports = append(reports, ReceiverState{
			Node: rx, Session: s, Level: 4, LossRate: 0.0, Bytes: 240_000,
		})
	}
	return topos, reports
}

// BenchmarkStepTopologyB measures one full five-stage controller interval on
// Topology B. The steady variant is the dominant production regime — every
// receiver healthy, no reductions, no capacity pins — and must run with
// zero allocations per step once the first sight is behind it; the congested variant exercises the pinning
// and reduction machinery on every interval.
func BenchmarkStepTopologyB(b *testing.B) {
	for _, sessions := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("steady/sessions-%d", sessions), func(b *testing.B) {
			cfg := NewConfig([]float64{32e3, 64e3, 128e3, 256e3, 512e3, 1024e3})
			alg := New(cfg, nil)
			topos, reports := topologyB(sessions)
			alg.Step(Input{Now: cfg.Interval, Topologies: topos, Reports: reports}) // first sight
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := sim.Time(i+2) * cfg.Interval
				alg.Step(Input{Now: now, Topologies: topos, Reports: reports})
			}
		})
		b.Run(fmt.Sprintf("congested/sessions-%d", sessions), func(b *testing.B) {
			cfg := NewConfig([]float64{32e3, 64e3, 128e3, 256e3, 512e3, 1024e3})
			alg := New(cfg, nil)
			topos, reports := topologyB(sessions)
			for i := range reports {
				reports[i].LossRate = 0.12 // above p_threshold on the shared link
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := sim.Time(i+1) * cfg.Interval
				alg.Step(Input{Now: now, Topologies: topos, Reports: reports})
			}
		})
	}
}

// treeImage builds the controller's image of `tree,depth=d,branch=b,rxleaf=r`:
// a router tree of fan-out b and depth d numbered level by level, r receiver
// hosts behind every leaf router numbered after the routers, and a clean
// report from every receiver — 21 111 nodes at depth 4, branch 10, rxleaf 1.
func treeImage(depth, branch, rxleaf int) (*Topology, []ReceiverState) {
	parent := map[NodeID]NodeID{}
	receivers := map[NodeID]bool{}
	level := []NodeID{0}
	next := NodeID(1)
	for d := 0; d < depth; d++ {
		var below []NodeID
		for _, n := range level {
			for k := 0; k < branch; k++ {
				parent[next] = n
				below = append(below, next)
				next++
			}
		}
		level = below
	}
	var reports []ReceiverState
	for _, n := range level {
		for k := 0; k < rxleaf; k++ {
			parent[next] = n
			receivers[next] = true
			reports = append(reports, ReceiverState{Node: next, Level: 1, Bytes: 16_000})
			next++
		}
	}
	return NewTopology(0, 0, parent, receivers), reports
}

// BenchmarkStepTree measures one controller interval over the 21 111-node
// image of the tree10k-flat workload: "first-sight" on a fresh algorithm
// (every node and link is new: allocations per column, at most 64), and
// "steady" on one that has seen the tree (0 allocations).
func BenchmarkStepTree(b *testing.B) {
	cfg := NewConfig([]float64{32e3, 64e3, 128e3, 256e3, 512e3, 1024e3})
	topo, reports := treeImage(4, 10, 1)
	in := Input{Topologies: []*Topology{topo}, Reports: reports}
	b.Run("first-sight", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in.Now = cfg.Interval
			New(cfg, nil).Step(in)
		}
	})
	b.Run("steady", func(b *testing.B) {
		alg := New(cfg, nil)
		in.Now = cfg.Interval
		alg.Step(in)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in.Now += cfg.Interval
			alg.Step(in)
		}
	})
}

// TestStepFirstSightAllocs pins that a first-sight pass allocates per column,
// not per node: ten times the tree costs at most 16 more mallocs.
func TestStepFirstSightAllocs(t *testing.T) {
	mallocs := func(depth int) float64 {
		topo, reports := treeImage(depth, 10, 1)
		in := Input{Now: DefaultInterval, Topologies: []*Topology{topo}, Reports: reports}
		return testing.AllocsPerRun(3, func() { New(testConfig(), nil).Step(in) })
	}
	small, large := mallocs(3), mallocs(4) // 2 111 and 21 111 nodes
	t.Logf("first-sight mallocs: %.0f at 2 111 nodes, %.0f at 21 111", small, large)
	if large > small+16 {
		t.Errorf("first sight of a 10x larger tree costs %.0f mallocs more, want at most 16", large-small)
	}
}
