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
		topos = append(topos, &Topology{
			Session:   s,
			Root:      src,
			Parent:    map[NodeID]NodeID{x: src, y: x, rx: y},
			Children:  map[NodeID][]NodeID{src: {x}, x: {y}, y: {rx}},
			Receivers: map[NodeID]bool{rx: true},
		})
		reports = append(reports, ReceiverState{
			Node: rx, Session: s, Level: 4, LossRate: 0.0, Bytes: 240_000,
		})
	}
	return topos, reports
}

// BenchmarkStepTopologyB measures one full five-stage controller interval on
// Topology B. The steady variant is the dominant production regime — every
// receiver healthy, no reductions, no capacity pins — and must run with
// zero allocations per step; the congested variant exercises the pinning
// and reduction machinery on every interval.
func BenchmarkStepTopologyB(b *testing.B) {
	for _, sessions := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("steady/sessions-%d", sessions), func(b *testing.B) {
			cfg := NewConfig([]float64{32e3, 64e3, 128e3, 256e3, 512e3, 1024e3})
			alg := New(cfg, nil)
			topos, reports := topologyB(sessions)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := sim.Time(i+1) * cfg.Interval
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
