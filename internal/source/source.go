// Package source implements the paper's hierarchical layered media source:
// a session of cumulative layers, each transmitted on its own multicast
// group, with the base layer at 32 Kbps and every subsequent layer doubling
// the previous layer's rate. Both constant-bit-rate (CBR) and the
// variable-bit-rate (VBR) model of Gopalakrishnan et al. are provided; the
// VBR model is the one the paper specifies: in each 1-second interval the
// source emits n packets per layer-unit, where n = 1 with probability
// 1 - 1/P and n = P·A + 1 - P with probability 1/P (A = average packets per
// interval, P = peak-to-mean ratio).
//
// Every layer is numbered and counted; a layer whose tree does not reach
// the source node queues no events. A VBR batch drawn while its layer is
// silent is parked on reserved sequence numbers and wakes where the tree
// comes to reach the source node: a Join at the source node, or a graft
// landing there.
package source

import (
	"fmt"

	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// Paper constants (Section IV).
const (
	// DefaultLayers is the number of layers in a session.
	DefaultLayers = 6
	// BaseRate is the base-layer rate in bits per second.
	BaseRate = 32_000
	// PacketSize is the media packet size in bytes.
	PacketSize = 1000
	// VBRInterval is the batching interval of the VBR model.
	VBRInterval = 1 * sim.Second
)

// LayerRate returns the rate in bits/s of layer k (1-based): 32 Kbps for
// layer 1, doubling per layer. Layers outside [1, 62] panic.
func LayerRate(k int) float64 {
	if k < 1 || k > 62 {
		panic(fmt.Sprintf("source: layer %d out of range", k))
	}
	return float64(BaseRate) * float64(int64(1)<<(k-1))
}

// CumulativeRate returns the total rate of a subscription to layers 1..k.
// CumulativeRate(0) is 0.
func CumulativeRate(k int) float64 {
	total := 0.0
	for i := 1; i <= k; i++ {
		total += LayerRate(i)
	}
	return total
}

// Rates returns the per-layer rates for layers 1..n, the "advertised
// bandwidth of each layer" the TopoSense algorithm assumes is known.
func Rates(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = LayerRate(i + 1)
	}
	return out
}

// LevelForBandwidth returns the largest subscription level whose cumulative
// rate fits within bps, given per-layer rates. It never returns less than 0.
func LevelForBandwidth(rates []float64, bps float64) int {
	total := 0.0
	for i, r := range rates {
		total += r
		if total > bps {
			return i
		}
	}
	return len(rates)
}

// Config parameterizes one layered session source.
type Config struct {
	Session    int
	Layers     int     // number of layers; 0 means DefaultLayers
	PacketSize int     // bytes; 0 means PacketSize
	PeakToMean float64 // P of the VBR model; <= 1 selects CBR
	// Rates overrides the default doubling layer rates (bits/s, index 0 =
	// base layer). When set, it also determines the layer count. Used by
	// the layer-granularity extension experiments (the paper's Section V
	// discusses finer-grained layers as a remedy for group-leave latency).
	Rates []float64
}

func (c Config) layers() int {
	if len(c.Rates) > 0 {
		return len(c.Rates)
	}
	if c.Layers == 0 {
		return DefaultLayers
	}
	return c.Layers
}

// rate returns layer k's rate under this config.
func (c Config) rate(k int) float64 {
	if len(c.Rates) > 0 {
		return c.Rates[k-1]
	}
	return LayerRate(k)
}

func (c Config) packetSize() int {
	if c.PacketSize == 0 {
		return PacketSize
	}
	return c.PacketSize
}

// VBR reports whether the config selects the variable-bit-rate model.
func (c Config) VBR() bool { return c.PeakToMean > 1 }

// Source transmits one layered session from a network node; receivers
// control what they get by joining and leaving the per-layer groups. Every
// layer is numbered and counted; a layer whose tree does not reach the
// source node queues no events: its packets are counted and dropped before
// they are built, and a VBR batch drawn while it is silent is parked (see
// vbrBatch). The batch wakes at the two points where the tree comes to
// reach the source node: a Join at the source node, and a graft landing
// there.
type Source struct {
	cfg    Config
	net    *netsim.Network
	domain *mcast.Domain
	node   *netsim.Node

	groups  []netsim.GroupID // index 0 = layer 1
	seq     []int64          // next sequence number per layer
	sent    []int64          // packets sent per layer, parked positions aside
	vbr     []vbrLayer       // per layer under the VBR model, else nil
	started bool
	stopped bool
	tickers []*sim.Ticker
}

// vbrLayer is one VBR layer's parked batch, and the Action of the layer's
// per-packet emit events.
type vbrLayer struct {
	s      *Source
	layer  int
	parked vbrBatch
}

// Fire emits one of the layer's packets.
func (v *vbrLayer) Fire() {
	if !v.s.stopped {
		v.s.emit(v.layer)
	}
}

// cbrEmit is a CBR layer's emit event: it sends one packet and re-arms
// itself one gap on.
type cbrEmit struct {
	s     *Source
	layer int
	gap   sim.Time
}

func (c *cbrEmit) Fire() {
	if c.s.stopped {
		return
	}
	c.s.emit(c.layer)
	c.s.sched().After(c.gap, c)
}

// vbrBatch is the batch a VBR layer drew while its tree did not reach the
// source node. Its i-th packet belongs at start+i*gap under sequence number
// seq+i, numbers reserved when the batch was drawn; positions from next on
// are not yet in Source.seq and Source.sent. count is 0 when nothing is
// parked.
type vbrBatch struct {
	start, gap  sim.Time
	seq         uint64
	next, count int
}

func (b *vbrBatch) at(i int) sim.Time { return b.start + sim.Time(i)*b.gap }

// New creates a source for cfg at node, registering one multicast group per
// layer. Call Start to begin transmission.
func New(net *netsim.Network, domain *mcast.Domain, node *netsim.Node, cfg Config) *Source {
	s := &Source{cfg: cfg, net: net, domain: domain, node: node}
	n := cfg.layers()
	s.groups = make([]netsim.GroupID, n)
	s.seq = make([]int64, n)
	s.sent = make([]int64, n)
	for l := 1; l <= n; l++ {
		s.groups[l-1] = domain.RegisterGroup(cfg.Session, l, node.ID)
	}
	if cfg.VBR() {
		s.vbr = make([]vbrLayer, n)
		for l := 1; l <= n; l++ {
			layer := l
			s.vbr[l-1].s, s.vbr[l-1].layer = s, l
			domain.OnSourceReached(s.groups[l-1], func() { s.wake(layer) })
		}
	}
	return s
}

// sched returns the scheduler owning the source node's events. On a
// partitioned network this is the node's shard; the topology partitioners
// pin source nodes to partition 0 so the VBR model's runtime Rand() draws
// stay on the shard that is allowed to touch the run-wide stream.
func (s *Source) sched() sim.Scheduler { return s.net.SchedulerFor(s.node.ID) }

// Node returns the node the source transmits from.
func (s *Source) Node() *netsim.Node { return s.node }

// Session returns the session number.
func (s *Source) Session() int { return s.cfg.Session }

// Layers returns the number of layers.
func (s *Source) Layers() int { return s.cfg.layers() }

// Group returns the multicast group of layer k (1-based).
func (s *Source) Group(k int) netsim.GroupID { return s.groups[k-1] }

// Sent returns packets transmitted so far on layer k (1-based), the
// positions a parked batch has gone by included.
func (s *Source) Sent(k int) int64 {
	if s.vbr == nil {
		return s.sent[k-1]
	}
	return s.sent[k-1] + int64(s.ahead(k)-s.vbr[k-1].parked.next)
}

// Start begins transmission of every layer. CBR layers emit one packet per
// fixed inter-packet gap; VBR layers emit a per-interval batch spread evenly
// across the interval. Each layer's per-packet event has one Action (the
// vbrLayer, or a cbrEmit made here) that is rescheduled as is, so
// steady-state emission allocates nothing.
func (s *Source) Start() {
	if s.started {
		return
	}
	s.started = true
	e := s.sched()
	for l := 1; l <= s.cfg.layers(); l++ {
		layer := l
		if s.cfg.VBR() {
			// Emit one batch immediately, then every interval.
			s.emitVBRBatch(layer)
			s.tickers = append(s.tickers, sim.Every(e, VBRInterval, func() { s.emitVBRBatch(layer) }))
		} else {
			gap := sim.TransmitTime(s.cfg.packetSize(), s.cfg.rate(layer))
			// Desynchronize layers slightly so all layers do not fire in
			// the same microsecond (deterministic per seed).
			offset := sim.Time(e.Rand().Int63n(int64(gap)))
			e.After(offset, &cbrEmit{s: s, layer: layer, gap: gap})
		}
	}
}

// Stop halts all transmission. A parked batch's positions that have gone
// by are counted; the rest are dropped, as the emit events they stand for
// would have found the source stopped.
func (s *Source) Stop() {
	s.stopped = true
	for _, tk := range s.tickers {
		tk.Stop()
	}
	s.tickers = nil
	for l := 1; l <= len(s.vbr); l++ {
		s.settle(l, s.ahead(l))
		s.vbr[l-1].parked = vbrBatch{}
	}
}

// emitVBRBatch draws the per-interval packet count from the peak-to-mean
// model and spreads the packets evenly across the interval, scheduling the
// layer's emit Action once per packet. While the layer's tree does
// not reach the source node it parks the batch instead: it reserves the
// packets' sequence numbers and queues nothing until wake.
func (s *Source) emitVBRBatch(layer int) {
	if s.stopped {
		return
	}
	v := &s.vbr[layer-1]
	// The last batch's positions all lie before this instant.
	s.settle(layer, v.parked.count)
	v.parked = vbrBatch{}
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
	if !s.domain.OnTree(s.node.ID, s.groups[layer-1]) {
		v.parked = vbrBatch{start: e.Now(), gap: gap, seq: s.reserver().Reserve(count), count: count}
		return
	}
	for i := 0; i < count; i++ {
		e.After(sim.Time(i)*gap, v)
	}
}

// wake resumes layer's parked batch once the layer's tree reaches the
// source node: the positions that have gone by are counted, and each later
// one is queued under its reserved number, so it fires exactly where the
// batch would have put it.
func (s *Source) wake(layer int) {
	v := &s.vbr[layer-1]
	b := &v.parked
	if b.count == 0 || s.stopped {
		return
	}
	r := s.reserver()
	from := s.ahead(layer)
	s.settle(layer, from)
	for i := from; i < b.count; i++ {
		r.AtReserved(b.at(i), b.seq+uint64(i), v)
	}
	*b = vbrBatch{}
}

// ahead returns the index of layer's first parked position that has not
// gone by: the parked batch's count when all have, its next when none is
// parked.
func (s *Source) ahead(layer int) int {
	b := &s.vbr[layer-1].parked
	r := s.reserver()
	i := b.next
	for i < b.count && r.Passed(b.at(i), b.seq+uint64(i)) {
		i++
	}
	return i
}

// settle counts layer's parked positions before through as sent, the way
// their emit events would have.
func (s *Source) settle(layer, through int) {
	b := &s.vbr[layer-1].parked
	n := int64(through - b.next)
	s.seq[layer-1] += n
	s.sent[layer-1] += n
	b.next = through
}

// reserver is the source node's scheduler as a sim.Reserver.
func (s *Source) reserver() sim.Reserver { return s.sched().(sim.Reserver) }

// emit transmits one media packet on layer. Media packets are the hot path
// — they come from the network's pool and are recycled as soon as every
// tree branch has delivered or dropped them. While the layer's tree does
// not reach the source node the packet is counted and never built: the
// source node would drop it.
func (s *Source) emit(layer int) {
	idx := layer - 1
	seq := s.seq[idx]
	s.seq[idx]++
	s.sent[idx]++
	if !s.domain.OnTree(s.node.ID, s.groups[idx]) {
		return
	}
	p := s.net.NewPacket()
	p.Kind = netsim.Data
	p.Src = s.node.ID
	p.Dst = netsim.NoNode
	p.Group = s.groups[idx]
	p.Session = s.cfg.Session
	p.Layer = layer
	p.Seq = seq
	p.Size = s.cfg.packetSize()
	p.Sent = s.sched().Now()
	s.node.SendMulticastLocal(p)
	p.Release()
}

// RatesGeometric returns n layer rates starting at base bits/s, each layer
// factor times the previous. RatesGeometric(6, 32e3, 2) reproduces the
// paper's defaults; smaller factors with more layers model the
// finer-granularity encodings the paper's Section V proposes to soften
// group-leave latency.
func RatesGeometric(n int, base, factor float64) []float64 {
	if n < 1 || base <= 0 || factor <= 0 {
		panic("source: RatesGeometric needs n >= 1, base > 0, factor > 0")
	}
	out := make([]float64, n)
	r := base
	for i := range out {
		out[i] = r
		r *= factor
	}
	return out
}
