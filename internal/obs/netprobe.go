package obs

import (
	"sync"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// NetProbe instruments the packet plane through the netsim.Probe
// observation point: queue depth at enqueue, drops split by cause and
// packet kind, and per-link latency (queuing + serialization +
// propagation) at delivery. Attach it network-wide with
// Network.AttachProbe, or per-link with Link.Attach.
//
// Because probes are the packet plane's only observation hook, a
// simulation without a NetProbe attached runs the exact pre-obs hot path:
// the disabled cost of this instrument is zero by construction.
//
// The probe carries no engine handle: on a sharded engine there is no one
// clock, so each callback reads the observed link's own context — the
// sending side's clock for Enqueue/Drop, the receiving side's for Deliver
// (Link.NowTx / Link.NowRx) — and records into that side's context
// (Obs.Context). A mutex guards the latency-matching map, which links in
// different shards touch concurrently.
//
// Latency is measured by remembering, per (link, packet), when the link
// accepted the packet. Two edge cases lose the enqueue timestamp and are
// skipped rather than guessed: a packet accepted before the probe was
// attached, and a priority-dropping arrival that replaced a queued victim
// (the link transfers the victim's accounting to the arrival without a
// fresh enqueue).
type NetProbe struct {
	o       *Obs
	mu      sync.Mutex
	pending map[pendKey]sim.Time
}

type pendKey struct {
	l *netsim.Link
	p *netsim.Packet
}

// NewNetProbe builds a probe feeding o's packet-plane instruments.
func NewNetProbe(o *Obs) *NetProbe {
	if o == nil {
		panic("obs: NewNetProbe requires an Obs")
	}
	return &NetProbe{o: o, pending: make(map[pendKey]sim.Time)}
}

// Enqueue implements netsim.Probe.
func (np *NetProbe) Enqueue(l *netsim.Link, p *netsim.Packet) {
	now, ctx := l.NowTx(), np.o.Context(l.From)
	depth := l.QueueLen() // depth the arrival saw (it is not queued yet)
	np.o.Enqueues.Inc()
	np.o.QueueDepth.ObserveIn(ctx, float64(depth))
	np.mu.Lock()
	np.pending[pendKey{l, p}] = now
	np.mu.Unlock()
	np.o.Rec.RecordIn(ctx, Event{
		At: now, Kind: EvEnqueue,
		From: int32(l.From), To: int32(l.To),
		Session: int32(p.Session), Layer: int32(p.Layer),
		Seq: p.Seq, Aux: int64(depth),
	})
}

// Drop implements netsim.Probe.
func (np *NetProbe) Drop(l *netsim.Link, p *netsim.Packet) {
	now := l.NowTx()
	cause := DropQueue
	if l.Down() {
		cause = DropLinkDown
		np.o.DropsDown.Inc()
	} else {
		np.o.DropsQueue.Inc()
	}
	if p.Kind == netsim.Control {
		np.o.DropsControl.Inc()
	} else {
		np.o.DropsData.Inc()
	}
	np.mu.Lock()
	delete(np.pending, pendKey{l, p})
	np.mu.Unlock()
	np.o.Rec.RecordIn(np.o.Context(l.From), Event{
		At: now, Kind: EvDrop,
		From: int32(l.From), To: int32(l.To),
		Session: int32(p.Session), Layer: int32(p.Layer),
		Seq: p.Seq, Aux: cause,
	})
}

// Deliver implements netsim.Probe.
func (np *NetProbe) Deliver(l *netsim.Link, p *netsim.Packet) {
	now, ctx := l.NowRx(), np.o.Context(l.To)
	np.o.Delivers.Inc()
	lat := int64(-1)
	k := pendKey{l, p}
	np.mu.Lock()
	t, ok := np.pending[k]
	if ok {
		delete(np.pending, k)
	}
	np.mu.Unlock()
	if ok {
		lat = int64(now - t)
		np.o.LinkLatency.ObserveIn(ctx, float64(now-t)/float64(sim.Millisecond))
	}
	np.o.Rec.RecordIn(ctx, Event{
		At: now, Kind: EvDeliver,
		From: int32(l.From), To: int32(l.To),
		Session: int32(p.Session), Layer: int32(p.Layer),
		Seq: p.Seq, Aux: lat,
	})
}
