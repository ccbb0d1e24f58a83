package source

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
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
	tick := sim.Every(e, sim.Second, func() {
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

// TestSteadyStateEmitIsAllocationFree pins the per-layer emit Actions: once
// the engine's event slots and the packet pool have warmed up, a CBR and a
// VBR source emit without allocating (the per-packet closure used to be
// 95 % of all objects on the paper's VBR workload).
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

// refEmitVBRBatch is emitVBRBatch as it was before parked batches, kept
// verbatim as the reference they are tested against (the way refLink and
// refAlgorithm keep the designs they replaced): every position of every
// batch is queued as an event, whether or not the layer's tree reaches the
// source node.
func (s *Source) refEmitVBRBatch(layer int, emit func()) {
	if s.stopped {
		return
	}
	e := s.sched()
	p := s.cfg.PeakToMean
	avg := s.cfg.rate(layer) / (float64(s.cfg.packetSize()) * 8) // A: packets per second
	var n float64
	if e.Rand().Float64() < 1/p {
		n = p*avg + 1 - p
	} else {
		n = 1
	}
	count := int(n + 0.5)
	if count < 1 {
		count = 1
	}
	gap := VBRInterval / sim.Time(count)
	for i := 0; i < count; i++ {
		e.After(sim.Time(i)*gap, sim.Func(emit))
	}
}

// refStart is Start's VBR branch as it was, driving refEmitVBRBatch.
func (s *Source) refStart() {
	s.started = true
	e := s.sched()
	for l := 1; l <= s.cfg.layers(); l++ {
		layer := l
		emit := func() {
			if !s.stopped {
				s.emit(layer)
			}
		}
		s.refEmitVBRBatch(layer, emit)
		tk := sim.Every(e, VBRInterval, func() { s.refEmitVBRBatch(layer, emit) })
		s.tickers = append(s.tickers, tk)
	}
}

// Parking differential: one schedule of joins, leaves, Stop and RunUntil
// slices drives a source with parked batches and a reference source with
// eager ones, on identical worlds src --5ms-- a --3ms-- b, and every member
// trace and every Sent(k) must agree after every slice.
const (
	parkLayers  = 4
	parkHorizon = 8 * sim.Second
	parkDelaySA = 5 * sim.Millisecond // src--a; the partition's lookahead
	parkDelayAB = 3 * sim.Millisecond
)

type tracePoint struct {
	at    sim.Time
	layer int
	seq   int64
}

// traceMember records what one node's member receives, in its own
// context's clock; one log per member keeps shards from sharing a slice.
type traceMember struct {
	sched sim.Scheduler
	log   []tracePoint
}

func (m *traceMember) RecvMulticast(p *netsim.Packet) {
	m.log = append(m.log, tracePoint{m.sched.Now(), p.Layer, p.Seq})
}

type parkWorld struct {
	run     sim.Runner
	net     *netsim.Network
	d       *mcast.Domain
	src     *Source
	nodes   [3]*netsim.Node // src, a, b
	members [3]*traceMember
}

// newParkWorld builds the world on the serial engine (shards 0) or on a
// two-partition sharded engine with shards workers, {src} and {a, b}. On
// shards a global ticker at the lookahead pins every window's end to the
// same grid in both worlds: a cross-shard event takes its number in its
// destination queue at the barrier, and the engine's jump over an idle gap
// depends on which events exist, which parking changes by design.
func newParkWorld(seed int64, shards int, eager bool) *parkWorld {
	var run sim.Runner
	if shards == 0 {
		run = sim.NewEngine(seed)
	} else {
		run = sim.NewShardedEngine(seed, shards)
	}
	w := &parkWorld{run: run, net: netsim.New(run)}
	for i, name := range []string{"src", "a", "b"} {
		w.nodes[i] = w.net.AddNode(name)
	}
	w.net.Connect(w.nodes[0], w.nodes[1], netsim.LinkConfig{Bandwidth: 100e6, Delay: parkDelaySA, QueueLimit: 1000})
	w.net.Connect(w.nodes[1], w.nodes[2], netsim.LinkConfig{Bandwidth: 100e6, Delay: parkDelayAB, QueueLimit: 1000})
	if se, ok := run.(*sim.ShardedEngine); ok {
		w.net.Partition(se, []int{0, 1, 1})
		sim.Every(se.Global(), parkDelaySA, func() {})
	}
	w.d = mcast.NewDomain(w.net)
	w.src = New(w.net, w.d, w.nodes[0], Config{Session: 0, Layers: parkLayers, PeakToMean: 3})
	for i, n := range w.nodes {
		w.members[i] = &traceMember{sched: w.net.SchedulerFor(n.ID)}
	}
	if eager {
		w.src.refStart()
	} else {
		w.src.Start()
	}
	return w
}

// parkAction is one scheduled step: a join or leave of node's member on
// layer at at, a Stop of the source, or the end of a RunUntil slice. A
// late action is queued at at by an event at at-1, so it sorts after
// everything numbered before at-1, the batch's reserved positions at at
// included; an early one is queued during set-up and sorts before them. A
// global one runs in the stop-the-world context (a barrier, on shards)
// instead of its node's.
type parkAction struct {
	kind   byte // 'j' join, 'l' leave, 's' stop, '|' slice end
	node   int
	layer  int
	at     sim.Time
	late   bool
	global bool
}

func (w *parkWorld) schedule(acts []parkAction) {
	for _, a := range acts {
		a := a
		var fn func()
		switch a.kind {
		case 'j':
			fn = func() { w.d.Join(w.nodes[a.node].ID, w.src.Group(a.layer), w.members[a.node]) }
		case 'l':
			fn = func() { w.d.Leave(w.nodes[a.node].ID, w.src.Group(a.layer), w.members[a.node]) }
		case 's':
			fn = w.src.Stop
		default:
			continue
		}
		sched := w.net.SchedulerFor(w.nodes[a.node].ID)
		if a.global {
			sched = sim.GlobalOf(w.run)
		}
		if a.late && a.at >= 1 {
			sched.At(a.at-1, sim.Func(func() { sched.At(a.at, sim.Func(fn)) }))
		} else {
			sched.At(a.at, sim.Func(fn))
		}
	}
}

// parkPositions returns every packet position of the first parkHorizon at
// seed: a probe world with a member on every layer at the source node.
// Positions depend on the seed alone, as the batch draws do.
func parkPositions(seed int64) []tracePoint {
	w := newParkWorld(seed, 0, true)
	for l := 1; l <= parkLayers; l++ {
		w.d.Join(w.nodes[0].ID, w.src.Group(l), w.members[0])
	}
	w.run.RunUntil(parkHorizon)
	return w.members[0].log
}

// checkParking runs acts on a parked and an eager world and compares them
// after every slice.
func checkParking(t *testing.T, seed int64, shards int, acts []parkAction) *parkWorld {
	t.Helper()
	parked, eager := newParkWorld(seed, shards, false), newParkWorld(seed, shards, true)
	parked.schedule(acts)
	eager.schedule(acts)
	var ends []sim.Time
	for _, a := range acts {
		if a.kind == '|' {
			ends = append(ends, a.at)
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	for _, end := range append(ends, parkHorizon) {
		parked.run.RunUntil(end)
		eager.run.RunUntil(end)
		for i := range parked.members {
			if got, want := parked.members[i].log, eager.members[i].log; !reflect.DeepEqual(got, want) {
				t.Fatalf("shards %d, by %v: node %d received %d packets, the eager reference %d\n%s",
					shards, end, i, len(got), len(want), traceDiff(got, want))
			}
		}
		for k := 1; k <= parkLayers; k++ {
			if got, want := parked.src.Sent(k), eager.src.Sent(k); got != want {
				t.Fatalf("shards %d, by %v: Sent(%d) = %d, the eager reference %d", shards, end, k, got, want)
			}
		}
	}
	if p, e := parked.run.Fired(), eager.run.Fired(); p > e {
		t.Fatalf("shards %d: parked run fired %d events, more than the eager reference's %d", shards, p, e)
	}
	return parked
}

func traceDiff(got, want []tracePoint) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("first difference at #%d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return "one trace is a prefix of the other"
}

// parkScript decodes 4-byte operations into actions at probe positions.
func parkScript(pos []tracePoint, data []byte) []parkAction {
	var acts []parkAction
	for ; len(data) >= 4 && len(acts) < 64; data = data[4:] {
		p := pos[(int(data[2])|int(data[3])<<8)%len(pos)]
		a := parkAction{node: int(data[1]) % 3, layer: 1 + int(data[1]>>2)%parkLayers, at: p.at,
			late: data[1]&0x80 != 0, global: data[1]&0x40 != 0}
		switch data[0] % 6 {
		case 0, 1:
			a.kind = 'j'
		case 2:
			a.kind = 'l'
		case 3:
			// A graft from a that lands at the source on p's microsecond.
			a.kind, a.node, a.layer, a.at, a.global = 'j', 1, p.layer, p.at-parkDelaySA, false
			if a.at < 0 {
				continue
			}
		case 4:
			if data[1]&3 != 0 {
				continue // Stop is rare: it ends the comparison's interest
			}
			a.kind, a.node, a.global = 's', 0, false
		default:
			a.kind, a.at = '|', p.at+sim.Time(data[1]%3)-1
			if a.at < 0 {
				continue
			}
		}
		acts = append(acts, a)
	}
	return acts
}

func TestVBRParkingMatchesEager(t *testing.T) {
	const seed = 7
	pos := parkPositions(seed)
	// The first position of a batch after the first second, and a position
	// more than the src--a delay into its batch, of the same layer; and a
	// position into a batch of another layer.
	var first, deep, mid tracePoint
	for _, p := range pos {
		if mid.at == 0 && p.at >= 2*VBRInterval && p.at%VBRInterval > 0 && p.layer == 2 {
			mid = p
		}
		into := p.at % VBRInterval
		if first.at == 0 && p.at >= VBRInterval && into == 0 && p.layer == 3 {
			first = p
		}
		if deep.at == 0 && p.at >= 2*VBRInterval && into > 2*parkDelaySA && p.layer == 3 {
			deep = p
		}
	}
	if first.at == 0 || deep.at == 0 || mid.at == 0 {
		t.Fatalf("probe found no suitable positions among %d", len(pos))
	}
	schedules := map[string][]parkAction{
		// A graft lands on a batch's first position before it in sequence
		// order (it was sent before the batch was drawn), so that position
		// is delivered; another lands on a position after it, which is lost.
		"graft on a position": {
			{kind: 'j', node: 1, layer: 3, at: first.at - parkDelaySA},
			{kind: 'l', node: 1, layer: 3, at: first.at + 300*sim.Millisecond},
			{kind: 'j', node: 1, layer: 3, at: deep.at - parkDelaySA},
			{kind: '|', at: first.at},
			{kind: '|', at: deep.at - 1},
			{kind: '|', at: deep.at},
		},
		// A join at the source node on a position's microsecond, queued
		// before and after that position and at a barrier; a graft through
		// two hops; slices that end mid-batch and a Stop mid-batch.
		"join at the source": {
			{kind: 'j', node: 0, layer: 2, at: mid.at},
			{kind: 'l', node: 0, layer: 2, at: mid.at + 2*sim.Millisecond},
			{kind: 'j', node: 0, layer: 3, at: deep.at, global: true},
			{kind: 'l', node: 0, layer: 3, at: deep.at + 1, global: true},
			{kind: 'j', node: 0, layer: 3, at: deep.at + VBRInterval, late: true},
			{kind: 'j', node: 2, layer: 2, at: 1500 * sim.Millisecond},
			{kind: 'l', node: 2, layer: 2, at: 3500 * sim.Millisecond},
			{kind: '|', at: 2300 * sim.Millisecond},
			{kind: '|', at: deep.at + VBRInterval},
			{kind: 's', node: 0, at: deep.at + VBRInterval + 400*sim.Millisecond},
		},
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 4; i++ {
		data := make([]byte, 4*24)
		rng.Read(data)
		schedules[fmt.Sprintf("random %d", i)] = parkScript(pos, data)
	}
	t.Run("stop in a delivery, join between runs", func(t *testing.T) { checkStopInDelivery(t, seed, pos) })
	for name, acts := range schedules {
		t.Run(name, func(t *testing.T) {
			for _, shards := range []int{0, 2} {
				w := checkParking(t, seed, shards, acts)
				if name != "graft on a position" {
					continue
				}
				// The schedule did what it says: first arrived at a, deep
				// did not.
				got := map[int64]bool{}
				for _, p := range w.members[1].log {
					if p.layer == 3 {
						got[p.seq] = true
					}
				}
				if !got[first.seq] || got[deep.seq] {
					t.Fatalf("shards %d: a received position %d: %v, position %d: %v; want true, false",
						shards, first.seq, got[first.seq], deep.seq, got[deep.seq])
				}
			}
		})
	}
}

// stopMember is a traceMember that stops the run when it receives one
// packet.
type stopMember struct {
	*traceMember
	run  sim.Runner
	stop tracePoint
}

func (m stopMember) RecvMulticast(p *netsim.Packet) {
	m.traceMember.RecvMulticast(p)
	if p.Layer == m.stop.layer && p.Seq == m.stop.seq {
		m.run.Stop()
	}
}

// checkStopInDelivery stops a run from inside a link delivery — a lane
// action, which is the last thing the engine fired — and joins at the
// source between runs: the wake reads Passed for a parked position that
// went by after the last calendar event (an emit or a batch draw) and
// before the delivery, so it must count it as sent, not queue it in the
// past.
func checkStopInDelivery(t *testing.T, seed int64, pos []tracePoint) {
	probe := newParkWorld(seed, 0, false)
	probe.d.Join(probe.nodes[2].ID, probe.src.Group(1), probe.members[2])
	probe.run.RunUntil(parkHorizon)
	// The first delivery at b with a parked position strictly between it
	// and the latest calendar instant before it.
	var stop, gone tracePoint
	for _, d := range probe.members[2].log {
		last := (d.at - 1) / VBRInterval * VBRInterval
		for _, p := range pos {
			if p.layer == 1 && p.at < d.at {
				last = max(last, p.at)
			}
		}
		for _, p := range pos {
			if p.layer > 1 && p.at > last && p.at < d.at {
				stop, gone = d, p
				break
			}
		}
		if stop.at != 0 {
			break
		}
	}
	if stop.at == 0 {
		t.Fatalf("no delivery at b among %d follows a parked position with no calendar event between", len(probe.members[2].log))
	}
	parked, eager := newParkWorld(seed, 0, false), newParkWorld(seed, 0, true)
	for _, w := range []*parkWorld{parked, eager} {
		w.d.Join(w.nodes[2].ID, w.src.Group(1), stopMember{w.members[2], w.run, stop})
		w.run.RunUntil(parkHorizon)
		if w.run.Now() != stop.at {
			t.Fatalf("the run stopped at %v, want the delivery's %v", w.run.Now(), stop.at)
		}
		w.d.Join(w.nodes[0].ID, w.src.Group(gone.layer), w.members[0])
		w.run.RunUntil(parkHorizon)
	}
	for i := range parked.members {
		if got, want := parked.members[i].log, eager.members[i].log; !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d received %d packets, the eager reference %d\n%s", i, len(got), len(want), traceDiff(got, want))
		}
	}
	for k := 1; k <= parkLayers; k++ {
		if got, want := parked.src.Sent(k), eager.src.Sent(k); got != want {
			t.Fatalf("Sent(%d) = %d, the eager reference %d", k, got, want)
		}
	}
}

// FuzzVBRParking searches for a schedule on which parked batches and the
// eager reference disagree, on the serial engine and on two shards.
func FuzzVBRParking(f *testing.F) {
	f.Add(int64(1), []byte{3, 0, 40, 0, 5, 1, 41, 0, 0, 0x84, 90, 0, 5, 2, 120, 0})
	f.Add(int64(2), []byte{0, 8, 10, 0, 2, 8, 30, 0, 4, 0, 33, 0, 5, 0, 32, 0})
	f.Add(int64(3), []byte{3, 0, 7, 1, 3, 0, 9, 1, 5, 1, 8, 1, 2, 5, 200, 0})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		pos := parkPositions(seed)
		if len(pos) == 0 {
			return
		}
		acts := parkScript(pos, data)
		checkParking(t, seed, 0, acts)
		checkParking(t, seed, 2, acts)
	})
}
