package source

import (
	"math"
	"testing"
	"testing/quick"

	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/sim"
)

func TestLayerRate(t *testing.T) {
	want := []float64{32_000, 64_000, 128_000, 256_000, 512_000, 1_024_000}
	for i, w := range want {
		if got := LayerRate(i + 1); got != w {
			t.Errorf("LayerRate(%d) = %g, want %g", i+1, got, w)
		}
	}
}

func TestLayerRateOutOfRangePanics(t *testing.T) {
	for _, k := range []int{0, -1, 63} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LayerRate(%d) did not panic", k)
				}
			}()
			LayerRate(k)
		}()
	}
}

func TestCumulativeRate(t *testing.T) {
	// Paper: 4 layers = 480 Kbps ("each session can ideally receive
	// 500Kbps (4 layers)").
	if got := CumulativeRate(4); got != 480_000 {
		t.Errorf("CumulativeRate(4) = %g, want 480000", got)
	}
	if got := CumulativeRate(0); got != 0 {
		t.Errorf("CumulativeRate(0) = %g", got)
	}
	if got := CumulativeRate(6); got != 2_016_000 {
		t.Errorf("CumulativeRate(6) = %g", got)
	}
}

func TestRates(t *testing.T) {
	r := Rates(6)
	if len(r) != 6 || r[0] != 32_000 || r[5] != 1_024_000 {
		t.Fatalf("Rates(6) = %v", r)
	}
}

func TestLevelForBandwidth(t *testing.T) {
	r := Rates(6)
	cases := []struct {
		bps  float64
		want int
	}{
		{0, 0},
		{31_999, 0},
		{32_000, 1},
		{96_000, 2},
		{100_000, 2},
		{480_000, 4},
		{500_000, 4},
		{992_000, 5},
		{1e9, 6},
	}
	for _, c := range cases {
		if got := LevelForBandwidth(r, c.bps); got != c.want {
			t.Errorf("LevelForBandwidth(%g) = %d, want %d", c.bps, got, c.want)
		}
	}
}

// Property: LevelForBandwidth is monotone in bps and its result's cumulative
// rate never exceeds the budget.
func TestQuickLevelForBandwidth(t *testing.T) {
	r := Rates(6)
	f := func(kbps uint32) bool {
		bps := float64(kbps % 3000 * 1000)
		lvl := LevelForBandwidth(r, bps)
		if CumulativeRate(lvl) > bps {
			return false
		}
		if lvl < 6 && CumulativeRate(lvl+1) <= bps {
			return false // not maximal
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

type countMember struct {
	packets int
	bytes   int64
	layers  map[int]int
}

func (m *countMember) RecvMulticast(p *netsim.Packet) {
	m.packets++
	m.bytes += int64(p.Size)
	if m.layers == nil {
		m.layers = map[int]int{}
	}
	m.layers[p.Layer]++
}

// rig builds src --(fat link)-- rx and subscribes a member to layers 1..sub.
func rig(seed int64, cfg Config, sub int) (*sim.Engine, *Source, *countMember) {
	e := sim.NewEngine(seed)
	n := netsim.New(e)
	srcNode := n.AddNode("src")
	rxNode := n.AddNode("rx")
	n.Connect(srcNode, rxNode, netsim.LinkConfig{Bandwidth: 100e6, Delay: sim.Millisecond, QueueLimit: 1000})
	d := mcast.NewDomain(n)
	s := New(n, d, srcNode, cfg)
	m := &countMember{}
	for l := 1; l <= sub; l++ {
		d.Join(rxNode.ID, s.Group(l), m)
	}
	return e, s, m
}

func TestCBRRateAccuracy(t *testing.T) {
	e, s, m := rig(1, Config{Session: 0}, 2)
	s.Start()
	e.RunUntil(10 * sim.Second)
	s.Stop()
	// Layers 1+2 = 96 Kbps = 12 packets/s of 1000B = 120 packets in 10s.
	gotRate := float64(m.bytes) * 8 / 10
	if math.Abs(gotRate-96_000) > 0.05*96_000 {
		t.Errorf("received rate %.0f bps, want ~96000", gotRate)
	}
	if m.layers[3] != 0 {
		t.Errorf("received %d packets of unsubscribed layer 3", m.layers[3])
	}
}

func TestCBRAllLayersFlow(t *testing.T) {
	e, s, m := rig(2, Config{Session: 0}, 6)
	s.Start()
	e.RunUntil(5 * sim.Second)
	s.Stop()
	for l := 1; l <= 6; l++ {
		if m.layers[l] == 0 {
			t.Errorf("layer %d never arrived", l)
		}
	}
	// Layer k+1 carries ~2x the packets of layer k.
	for l := 1; l < 6; l++ {
		ratio := float64(m.layers[l+1]) / float64(m.layers[l])
		if ratio < 1.6 || ratio > 2.4 {
			t.Errorf("layer %d/%d packet ratio %.2f, want ~2", l+1, l, ratio)
		}
	}
}

func TestVBRMeanRateMatchesCBR(t *testing.T) {
	for _, p := range []float64{2, 3, 6, 10} {
		e, s, m := rig(3, Config{Session: 0, PeakToMean: p}, 1)
		s.Start()
		e.RunUntil(300 * sim.Second)
		s.Stop()
		gotRate := float64(m.bytes) * 8 / 300
		if math.Abs(gotRate-32_000) > 0.15*32_000 {
			t.Errorf("P=%g: mean rate %.0f bps, want ~32000", p, gotRate)
		}
	}
}

func TestVBRIsBursty(t *testing.T) {
	// Count per-second arrivals: with P=6 most seconds carry the trough
	// (1 packet) and a few carry the burst.
	e, s, m := rig(4, Config{Session: 0, PeakToMean: 6}, 1)
	perSecond := make([]int, 0, 60)
	last := 0
	tick := e.Every(sim.Second, func() {
		perSecond = append(perSecond, m.packets-last)
		last = m.packets
	})
	s.Start()
	e.RunUntil(60 * sim.Second)
	s.Stop()
	tick.Stop()
	minC, maxC := math.MaxInt32, 0
	for _, c := range perSecond {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	// Burst size for layer 1, P=6: 6*4+1-6 = 19.
	if maxC < 10 {
		t.Errorf("max per-second count %d, expected bursts ~19", maxC)
	}
	if minC > 4 {
		t.Errorf("min per-second count %d, expected troughs of ~1", minC)
	}
}

func TestVBRConfigDetection(t *testing.T) {
	if (Config{PeakToMean: 1}).VBR() {
		t.Error("P=1 should be CBR")
	}
	if !(Config{PeakToMean: 3}).VBR() {
		t.Error("P=3 should be VBR")
	}
}

func TestSourceAccessors(t *testing.T) {
	e := sim.NewEngine(1)
	n := netsim.New(e)
	node := n.AddNode("src")
	d := mcast.NewDomain(n)
	s := New(n, d, node, Config{Session: 7})
	if s.Session() != 7 {
		t.Errorf("Session = %d", s.Session())
	}
	if s.Layers() != DefaultLayers {
		t.Errorf("Layers = %d", s.Layers())
	}
	if s.Node() != node {
		t.Error("Node mismatch")
	}
	for l := 1; l <= DefaultLayers; l++ {
		if s.Group(l) != d.GroupOf(7, l) {
			t.Errorf("Group(%d) mismatch", l)
		}
	}
	if s.Sent(1) != 0 {
		t.Errorf("Sent before start = %d", s.Sent(1))
	}
}

func TestStopHaltsTransmission(t *testing.T) {
	e, s, m := rig(5, Config{Session: 0}, 1)
	s.Start()
	e.RunUntil(2 * sim.Second)
	s.Stop()
	at2 := m.packets
	e.RunUntil(10 * sim.Second)
	if m.packets != at2 {
		t.Errorf("packets kept flowing after Stop: %d -> %d", at2, m.packets)
	}
}

// TestSteadyStateEmitIsAllocationFree pins the per-layer bound callbacks:
// once the engine's event slots and the packet pool have warmed up, a CBR
// and a VBR source emit without allocating (the per-packet closure used to
// be 95 % of all objects on the paper's VBR workload).
func TestSteadyStateEmitIsAllocationFree(t *testing.T) {
	for _, p := range []float64{0, 3} {
		e, s, _ := rig(5, Config{Session: 0, PeakToMean: p}, 0)
		s.Start()
		e.RunUntil(200 * sim.Second)
		sent := s.Sent(6)
		allocs := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + sim.Second) })
		if s.Sent(6) == sent {
			t.Fatalf("P=%g: no packets emitted during the measurement", p)
		}
		if allocs != 0 {
			t.Errorf("P=%g: %.0f allocs per simulated second of emission, want 0", p, allocs)
		}
	}
}

func TestStartIsIdempotent(t *testing.T) {
	e, s, m := rig(6, Config{Session: 0}, 1)
	s.Start()
	s.Start() // must not double the rate
	e.RunUntil(10 * sim.Second)
	s.Stop()
	if m.packets < 35 || m.packets > 45 {
		t.Errorf("packets = %d, want ~40 (idempotent Start)", m.packets)
	}
}

func TestSequenceNumbersAreContiguous(t *testing.T) {
	e := sim.NewEngine(1)
	n := netsim.New(e)
	srcNode := n.AddNode("src")
	rxNode := n.AddNode("rx")
	n.Connect(srcNode, rxNode, netsim.LinkConfig{Bandwidth: 100e6, Delay: sim.Millisecond, QueueLimit: 1000})
	d := mcast.NewDomain(n)
	s := New(n, d, srcNode, Config{Session: 0})
	var seqs []int64
	d.Join(rxNode.ID, s.Group(1), memberFunc(func(p *netsim.Packet) {
		if p.Layer == 1 {
			seqs = append(seqs, p.Seq)
		}
	}))
	s.Start()
	e.RunUntil(5 * sim.Second)
	s.Stop()
	for i, q := range seqs {
		if q != int64(i) {
			t.Fatalf("seq[%d] = %d (loss-free path must be gap-free)", i, q)
		}
	}
	if s.Sent(1) != int64(len(seqs)) {
		t.Errorf("Sent(1) = %d, received %d", s.Sent(1), len(seqs))
	}
}

type memberFunc func(*netsim.Packet)

func (f memberFunc) RecvMulticast(p *netsim.Packet) { f(p) }

func TestRatesGeometric(t *testing.T) {
	got := RatesGeometric(6, 32e3, 2)
	for i, want := range Rates(6) {
		if got[i] != want {
			t.Fatalf("RatesGeometric(6,32k,2)[%d] = %g, want %g", i, got[i], want)
		}
	}
	fine := RatesGeometric(12, 32e3, 1.41)
	if len(fine) != 12 || fine[0] != 32e3 {
		t.Errorf("fine rates: %v", fine)
	}
	for i := 1; i < len(fine); i++ {
		if fine[i] <= fine[i-1] {
			t.Errorf("rates not increasing at %d", i)
		}
	}
	for _, bad := range []func(){
		func() { RatesGeometric(0, 32e3, 2) },
		func() { RatesGeometric(3, 0, 2) },
		func() { RatesGeometric(3, 32e3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestCustomRatesConfig(t *testing.T) {
	rates := RatesGeometric(3, 64e3, 1.5)
	e := sim.NewEngine(1)
	n := netsim.New(e)
	srcNode := n.AddNode("src")
	rxNode := n.AddNode("rx")
	n.Connect(srcNode, rxNode, netsim.LinkConfig{Bandwidth: 100e6, Delay: sim.Millisecond, QueueLimit: 1000})
	d := mcast.NewDomain(n)
	s := New(n, d, srcNode, Config{Session: 0, Rates: rates})
	if s.Layers() != 3 {
		t.Fatalf("Layers = %d, want 3 from custom rates", s.Layers())
	}
	m := &countMember{}
	for l := 1; l <= 3; l++ {
		d.Join(rxNode.ID, s.Group(l), m)
	}
	s.Start()
	e.RunUntil(10 * sim.Second)
	s.Stop()
	// Total = 64k + 96k + 144k = 304 kbps.
	gotRate := float64(m.bytes) * 8 / 10
	if math.Abs(gotRate-304e3) > 0.08*304e3 {
		t.Errorf("custom-rate throughput %.0f, want ~304000", gotRate)
	}
}
