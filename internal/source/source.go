// Package source implements the paper's hierarchical layered media source:
// a session of cumulative layers, each transmitted on its own multicast
// group, with the base layer at 32 Kbps and every subsequent layer doubling
// the previous layer's rate. Both constant-bit-rate (CBR) and the
// variable-bit-rate (VBR) model of Gopalakrishnan et al. are provided; the
// VBR model is the one the paper specifies: in each 1-second interval the
// source emits n packets per layer-unit, where n = 1 with probability
// 1 - 1/P and n = P·A + 1 - P with probability 1/P (A = average packets per
// interval, P = peak-to-mean ratio).
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

// Source transmits one layered session from a network node. All layers are
// always transmitted; receivers control what they get by joining and
// leaving the per-layer groups.
type Source struct {
	cfg    Config
	net    *netsim.Network
	domain *mcast.Domain
	node   *netsim.Node

	groups  []netsim.GroupID // index 0 = layer 1
	seq     []int64          // next sequence number per layer
	sent    []int64          // packets sent per layer
	started bool
	stopped bool
	tickers []*sim.Ticker
}

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

// Sent returns packets transmitted so far on layer k (1-based).
func (s *Source) Sent(k int) int64 { return s.sent[k-1] }

// Start begins transmission of every layer. CBR layers emit one packet per
// fixed inter-packet gap; VBR layers emit a per-interval batch spread evenly
// across the interval. Each layer's per-packet callback is bound once here
// and rescheduled as is, so steady-state emission allocates nothing.
func (s *Source) Start() {
	if s.started {
		return
	}
	s.started = true
	e := s.sched()
	for l := 1; l <= s.cfg.layers(); l++ {
		layer := l
		if s.cfg.VBR() {
			emit := func() {
				if !s.stopped {
					s.emit(layer)
				}
			}
			// Emit one batch immediately, then every interval.
			s.emitVBRBatch(layer, emit)
			tk := sim.Every(e, VBRInterval, func() { s.emitVBRBatch(layer, emit) })
			s.tickers = append(s.tickers, tk)
		} else {
			gap := sim.TransmitTime(s.cfg.packetSize(), s.cfg.rate(layer))
			var emit func()
			emit = func() {
				if s.stopped {
					return
				}
				s.emit(layer)
				s.sched().Schedule(gap, emit)
			}
			// Desynchronize layers slightly so all layers do not fire in
			// the same microsecond (deterministic per seed).
			offset := sim.Time(e.Rand().Int63n(int64(gap)))
			e.Schedule(offset, emit)
		}
	}
}

// Stop halts all transmission.
func (s *Source) Stop() {
	s.stopped = true
	for _, tk := range s.tickers {
		tk.Stop()
	}
	s.tickers = nil
}

// emitVBRBatch draws the per-interval packet count from the peak-to-mean
// model and spreads the packets evenly across the interval, scheduling the
// layer's bound emit callback once per packet.
func (s *Source) emitVBRBatch(layer int, emit func()) {
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
		e.Schedule(sim.Time(i)*gap, emit)
	}
}

// emit transmits one media packet on layer. Media packets are the hot path
// — they come from the network's pool and are recycled as soon as every
// tree branch has delivered or dropped them.
func (s *Source) emit(layer int) {
	idx := layer - 1
	p := s.net.NewPacket()
	p.Kind = netsim.Data
	p.Src = s.node.ID
	p.Dst = netsim.NoNode
	p.Group = s.groups[idx]
	p.Session = s.cfg.Session
	p.Layer = layer
	p.Seq = s.seq[idx]
	p.Size = s.cfg.packetSize()
	p.Sent = s.sched().Now()
	s.seq[idx]++
	s.sent[idx]++
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
