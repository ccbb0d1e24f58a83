package obs

import (
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// The obs-gate benchmarks back the zero-overhead contract: every benchmark
// here must report 0 allocs/op (make obs-gate / scripts/benchdiff.sh
// obs-gate enforce it in CI). "Disabled" benchmarks exercise the exact code
// an uninstrumented component runs — a nil instrument or no probe attached.

func BenchmarkCounterIncDisabled(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncEnabled(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 63))
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	h := NewRegistry().Histogram("bench", []float64{1, 2, 4, 8, 16, 32, 64})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 63))
	}
}

func BenchmarkRecorderRecordDisabled(b *testing.B) {
	var r *Recorder
	ev := Event{Kind: EvEnqueue, From: 1, To: 2, Seq: 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(ev)
	}
}

func BenchmarkRecorderRecordEnabled(b *testing.B) {
	r := NewRecorder(DefaultFlightRecorder)
	ev := Event{Kind: EvEnqueue, From: 1, To: 2, Seq: 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.Seq = int64(i)
		r.Record(ev)
	}
}

// benchForward drives a paced pooled-packet flow over one link — the same
// shape as netsim's BenchmarkChainForwardPooled — optionally with a
// NetProbe attached. The unprobed run shows the disabled path is untouched
// (probes are the only hook, so no probe = the pre-obs hot path); the
// probed run bounds the enabled per-packet cost.
func benchForward(b *testing.B, probed bool) {
	e := sim.NewEngine(1)
	n := netsim.New(e)
	src := n.AddNode("src")
	dst := n.AddNode("dst")
	n.Connect(src, dst, netsim.LinkConfig{Bandwidth: 1e9, Delay: sim.Millisecond, QueueLimit: 64})
	if probed {
		o := New()
		n.AttachProbe(NewNetProbe(o))
	}
	inject := func(count int) {
		const gap = 8 * sim.Microsecond // one serialization slot: 1000 B at 1 Gbps
		sent := 0
		var fire func()
		fire = func() {
			p := n.NewPacket()
			p.Kind = netsim.Data
			p.Src, p.Dst = src.ID, dst.ID
			p.Group = netsim.NoGroup
			p.Size = 1000
			p.Seq = int64(sent)
			src.SendUnicast(p)
			p.Release()
			sent++
			if sent < count {
				e.Schedule(gap, fire)
			}
		}
		e.Schedule(0, fire)
		e.Run()
	}
	inject(1024) // fill the packet pool and the probe's pending map
	b.ReportAllocs()
	b.ResetTimer()
	inject(b.N)
}

func BenchmarkLinkForwardNoProbe(b *testing.B) { benchForward(b, false) }
func BenchmarkLinkForwardProbed(b *testing.B)  { benchForward(b, true) }
