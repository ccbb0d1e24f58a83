package mcast

import (
	"sync/atomic"

	"toposense/internal/netsim"
	"toposense/internal/obs"
	"toposense/internal/report"
	"toposense/internal/sim"
)

// DefaultFlushInterval is how often a tree node with pending aggregated
// feedback emits it toward the controller — matched to the receivers' report
// cadence so aggregation adds at most one report interval of latency per
// tree level.
const DefaultFlushInterval = 500 * sim.Millisecond

// Aggregator is the in-network feedback aggregation layer. Installed on
// every node of a network, it intercepts the control traffic of one
// controller in both directions:
//
//   - Upward, LossReports addressed to the controller are absorbed at their
//     origin node and folded into a per-(node, session) pending
//     report.Aggregate; a child's flushed Aggregate passing through is merged
//     the same way. Each node flushes its pending aggregates one FlushInterval
//     after the first absorption, emitting one compact packet per session
//     toward the controller — so every tree level forwards O(children)
//     aggregates per interval instead of O(subtree receivers) reports, and the
//     controller's fan-in is its own branching degree.
//
//   - Downward, the controller's pooled SuggestionBatch packets are split
//     per next hop at every stop and forwarded on, one packet per child
//     subtree, replacing per-receiver Suggestion unicasts.
//
// All per-node state lives on the owning node's shard and all timers use
// that shard's scheduler, so the layer runs unchanged — and deterministically
// — on the conservative sharded engine. The stats counters are atomics, like
// the Domain's tree counters, because shards hit them concurrently.
type Aggregator struct {
	net   *netsim.Network
	ctrl  netsim.NodeID
	flush sim.Time

	nodes []aggNode

	// Stats (atomic adds; read them after the run, or via atomic loads).
	Absorbed int64 // loss reports absorbed in-network
	Merged   int64 // child aggregates merged on their way up
	Flushes  int64 // aggregate packets emitted toward the controller
	Batches  int64 // suggestion sub-batches forwarded down the tree
	// Retained counts flushes deferred because the controller was
	// unreachable at flush time (a failed link mid-repair): the pending
	// aggregates are kept and the flush retried next interval, instead of
	// being emitted into a guaranteed routing drop.
	Retained int64
	// Purged counts pending entries dropped because their receiver
	// deregistered between absorption and flush — without the purge the
	// fan-in keeps reporting ghosts until the next flush.
	Purged int64

	stopped bool

	obs *obs.Obs
}

// pendingAgg is one session's accumulating aggregate at one node. The slot
// survives its aggregate being handed off (agg goes nil until the session's
// next absorption), keeping the per-node slice sorted by session so flush
// emission order is deterministic.
type pendingAgg struct {
	session int
	agg     *report.Aggregate
}

// splitGroup is redistribute's scratch: one outgoing sub-batch per next hop.
type splitGroup struct {
	next  netsim.NodeID
	batch *report.SuggestionBatch
}

// aggNode is the Aggregator's per-node state.
type aggNode struct {
	pending []pendingAgg
	armed   bool   // a flush timer is outstanding
	flushFn func() // prebound once so arming allocates nothing
	// lastBatch keeps the most recently consumed downward batch alive until
	// the next one arrives: agents attached after the Aggregator (and the
	// local receivers) still read it during the delivery that handed it over.
	lastBatch *report.SuggestionBatch
	groups    []splitGroup
}

// NewAggregator installs an aggregation layer for the controller at ctrl on
// every node of net (including nodes added later). flush <= 0 takes
// DefaultFlushInterval. Install before Start-time traffic; one aggregator
// per network.
func NewAggregator(net *netsim.Network, ctrl netsim.NodeID, flush sim.Time) *Aggregator {
	if flush <= 0 {
		flush = DefaultFlushInterval
	}
	a := &Aggregator{net: net, ctrl: ctrl, flush: flush}
	for _, n := range net.Nodes() {
		a.install(n)
	}
	prev := net.OnAddNode
	net.OnAddNode = func(n *netsim.Node) {
		if prev != nil {
			prev(n)
		}
		a.install(n)
	}
	return a
}

func (a *Aggregator) install(n *netsim.Node) {
	for int(n.ID) >= len(a.nodes) {
		a.nodes = append(a.nodes, aggNode{})
	}
	n.SetTransitFilter(a)
	n.AttachAgent(a)
}

// SetObs attaches an observability bundle; nil detaches it. Safe on a nil
// receiver, so worlds can wire it unconditionally.
func (a *Aggregator) SetObs(o *obs.Obs) {
	if a == nil {
		return
	}
	a.obs = o
}

// FlushInterval returns the per-node flush cadence.
func (a *Aggregator) FlushInterval() sim.Time { return a.flush }

// Stop retires the aggregation layer and returns every payload it holds to
// the report pools: each node's pending (unflushed) aggregates and its
// deferred-release lastBatch. Without it, stopping a session mid-interval
// strands the in-flight state — the deferred-by-one batch hand-over only
// releases a node's previous batch when its next one arrives, so the final
// batch of a stopped session would never go back to the pool. After Stop
// the transit filter passes control traffic through untouched and armed
// flush timers fire as no-ops. Safe on a nil receiver and idempotent —
// calling it again re-drains, so a straggler batch delivered between two
// Stops is still recovered; call it with the engine idle (nothing in
// flight).
func (a *Aggregator) Stop() {
	if a == nil {
		return
	}
	a.stopped = true
	for i := range a.nodes {
		nd := &a.nodes[i]
		for j := range nd.pending {
			if ag := nd.pending[j].agg; ag != nil {
				nd.pending[j].agg = nil
				ag.Release()
			}
		}
		if nd.lastBatch != nil {
			nd.lastBatch.Release()
			nd.lastBatch = nil
		}
	}
}

// FilterTransit implements netsim.TransitFilter: absorb upward control
// feedback bound for the controller. Everything else (registrations, the
// node's own outgoing flushes, unrelated unicast) passes through untouched.
func (a *Aggregator) FilterTransit(n *netsim.Node, p *netsim.Packet) bool {
	if a.stopped || p.Kind != netsim.Control || p.Dst != a.ctrl {
		return false
	}
	switch pl := p.Payload.(type) {
	case *report.LossReport:
		a.pending(n.ID, pl.Session).Fold(*pl)
		atomic.AddInt64(&a.Absorbed, 1)
		if a.obs != nil {
			a.obs.AggAbsorbed.Inc()
		}
	case *report.Aggregate:
		if pl.Origin == n.ID {
			return false // our own flush leaving this node
		}
		a.pending(n.ID, pl.Session).Merge(pl)
		pl.Release()
		atomic.AddInt64(&a.Merged, 1)
		if a.obs != nil {
			a.obs.AggMerges.Inc()
		}
	case *report.Deregister:
		// Pass through — the controller must still consume it — but purge
		// the departed receiver's pending entries at this hop. The packet
		// retraces the receiver's report path, so every node holding folded
		// reports from it sees the deregistration on the way up.
		a.purge(n.ID, pl.Session, pl.Node)
		return false
	default:
		return false
	}
	a.arm(n.ID)
	return true
}

// purge removes node's folded feedback from id's pending aggregate for
// session, releasing the aggregate back to the pool when it empties (the
// armed flush then skips the nil slot, keeping the balance invariant
// live == baseline + congestion-dropped).
func (a *Aggregator) purge(id netsim.NodeID, session int, node netsim.NodeID) {
	nd := &a.nodes[id]
	for i := range nd.pending {
		if nd.pending[i].session != session {
			continue
		}
		if ag := nd.pending[i].agg; ag != nil && ag.RemoveEntry(node) {
			atomic.AddInt64(&a.Purged, 1)
			if ag.Receivers() == 0 {
				nd.pending[i].agg = nil
				ag.Release()
			}
		}
		return
	}
}

// pending returns node's accumulating aggregate for session, creating it
// (from the report pool) on first use. The per-node list is a small sorted
// slice — a node sees a handful of sessions — so lookup is a linear scan and
// insertion keeps order without a map's nondeterministic iteration.
func (a *Aggregator) pending(id netsim.NodeID, session int) *report.Aggregate {
	nd := &a.nodes[id]
	i := 0
	for ; i < len(nd.pending); i++ {
		if nd.pending[i].session == session {
			if nd.pending[i].agg == nil {
				nd.pending[i].agg = report.NewAggregate(session, id)
			}
			return nd.pending[i].agg
		}
		if nd.pending[i].session > session {
			break
		}
	}
	nd.pending = append(nd.pending, pendingAgg{})
	copy(nd.pending[i+1:], nd.pending[i:])
	nd.pending[i] = pendingAgg{session: session, agg: report.NewAggregate(session, id)}
	return nd.pending[i].agg
}

// arm schedules the node's flush one interval out, unless one is already
// pending. Lazy one-shots instead of a permanent ticker: an idle node (no
// receivers below it) never wakes up.
func (a *Aggregator) arm(id netsim.NodeID) {
	nd := &a.nodes[id]
	if nd.armed {
		return
	}
	nd.armed = true
	if nd.flushFn == nil {
		node := id
		nd.flushFn = func() { a.flushNode(node) }
	}
	a.net.SchedulerFor(id).Schedule(a.flush, nd.flushFn)
}

// flushNode emits every pending aggregate at the node toward the controller,
// one pooled packet per session, handing each aggregate's ownership to its
// packet (the controller releases it on consumption; if congestion drops the
// packet the aggregate falls to the garbage collector instead of the pool).
//
// The route toward the controller is re-resolved here, at flush time, not
// frozen at absorb time: a PR 4 tree repair between absorption and flush
// re-points the next hop, and the flush must follow the repaired route
// rather than the one the reports arrived on. When no route exists at all —
// the controller is on the far side of a failed link that has not been
// repaired yet — emitting would feed every pending aggregate into a
// guaranteed routing drop (losing the feedback and leaking the pooled
// aggregate to the garbage collector). Instead the pending state is kept
// and the flush re-armed, so the accumulated feedback rides out the outage
// and reaches the controller on the post-repair route.
func (a *Aggregator) flushNode(id netsim.NodeID) {
	nd := &a.nodes[id]
	nd.armed = false
	if a.stopped {
		return
	}
	if a.net.NextHop(id, a.ctrl) == netsim.NoNode {
		atomic.AddInt64(&a.Retained, 1)
		a.arm(id)
		return
	}
	sched := a.net.SchedulerFor(id)
	now := sched.Now()
	node := a.net.Node(id)
	for i := range nd.pending {
		ag := nd.pending[i].agg
		if ag == nil {
			continue
		}
		nd.pending[i].agg = nil
		ag.Sent = now
		ag.Interval = a.flush
		pkt := report.NewPooledPacket(a.net, id, a.ctrl, ag.WireSize(), now)
		pkt.Session = ag.Session
		pkt.Payload = ag
		node.SendUnicast(pkt)
		pkt.Release()
		atomic.AddInt64(&a.Flushes, 1)
		if a.obs != nil {
			a.obs.AggFlushes.Inc()
		}
	}
}

// Recv implements netsim.Agent for the downward direction: split an arriving
// SuggestionBatch per next hop and forward the sub-batches. Local receivers
// are attached to the same node and read their own entries directly from the
// delivered batch, so entries addressed here are simply not forwarded.
func (a *Aggregator) Recv(p *netsim.Packet) {
	b, ok := p.Payload.(*report.SuggestionBatch)
	if !ok {
		return
	}
	if a.stopped {
		// No forwarding anymore, but still take ownership through the
		// deferred hand-over so a straggler batch delivered after Stop
		// keeps the pool balanced instead of falling to the collector.
		nd := &a.nodes[p.Dst]
		if nd.lastBatch != nil {
			nd.lastBatch.Release()
		}
		nd.lastBatch = b
		return
	}
	a.redistribute(p.Dst, b)
}

func (a *Aggregator) redistribute(id netsim.NodeID, b *report.SuggestionBatch) {
	nd := &a.nodes[id]
	groups := nd.groups[:0]
	for _, e := range b.Entries {
		if e.Node == id {
			continue // a local receiver's entry; it reads the batch itself
		}
		next := a.net.NextHop(id, e.Node)
		if next == netsim.NoNode {
			continue // unroutable, as the equivalent unicast would be
		}
		var g *splitGroup
		for j := range groups {
			if groups[j].next == next {
				g = &groups[j]
				break
			}
		}
		if g == nil {
			groups = append(groups, splitGroup{next: next, batch: report.NewSuggestionBatch()})
			g = &groups[len(groups)-1]
			g.batch.Sent = b.Sent
		}
		g.batch.Add(e.Node, e.Session, e.Level)
	}
	node := a.net.Node(id)
	now := a.net.SchedulerFor(id).Now()
	for i := range groups {
		g := &groups[i]
		pkt := report.NewPooledPacket(a.net, id, g.next, g.batch.WireSize(), now)
		pkt.Payload = g.batch
		node.SendUnicast(pkt)
		pkt.Release()
		g.batch = nil
		atomic.AddInt64(&a.Batches, 1)
		if a.obs != nil {
			a.obs.AggBatches.Inc()
		}
	}
	nd.groups = groups
	// Deferred hand-over: the batch just consumed stays alive until this
	// node's next one, covering agents later in the delivery loop.
	if nd.lastBatch != nil {
		nd.lastBatch.Release()
	}
	nd.lastBatch = b
}
