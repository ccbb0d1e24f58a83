package source

import (
	"testing"

	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// BenchmarkVBRLayerEvents runs one 1 Mbps VBR layer for b.N batch
// intervals, with and without a tree at the source node, and holds it to
// its event cost: a layer nobody receives fires one event per VBRInterval
// (its batch ticker), a received one its batch's packets plus that ticker.
// It fails itself otherwise, so a one-iteration smoke run catches a silent
// layer going back to an event per packet without timing anything.
func BenchmarkVBRLayerEvents(b *testing.B) {
	for _, tc := range []struct {
		name string
		tree bool
	}{{"silent", false}, {"received", true}} {
		b.Run(tc.name, func(b *testing.B) {
			e := sim.NewEngine(1)
			n := netsim.New(e)
			node := n.AddNode("src")
			d := mcast.NewDomain(n)
			s := New(n, d, node, Config{Session: 0, Rates: []float64{LayerRate(6)}, PeakToMean: 3})
			if tc.tree {
				d.Join(node.ID, s.Group(1), &countMember{})
			}
			s.Start()
			e.RunUntil(VBRInterval - 1) // the batch Start drew
			fired, sent := e.Fired(), s.Sent(1)
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				e.RunUntil(sim.Time(i+1)*VBRInterval - 1)
			}
			b.StopTimer()
			events, packets := e.Fired()-fired, s.Sent(1)-sent
			want := uint64(b.N)
			if tc.tree {
				want += uint64(packets)
			}
			if events != want || packets < int64(b.N) {
				b.Fatalf("%d intervals fired %d events for %d packets, want %d", b.N, events, packets, want)
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/interval")
			b.ReportMetric(float64(packets)/float64(b.N), "packets/interval")
		})
	}
}
