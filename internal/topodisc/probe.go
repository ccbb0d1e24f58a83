package topodisc

import (
	"toposense/internal/core"
	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// probeRound is one probe round's traced state: the edges, receivers and
// root its traces have reported so far.
type probeRound struct {
	root      netsim.NodeID
	parent    map[netsim.NodeID]netsim.NodeID
	receivers map[netsim.NodeID]bool
}

// probeSnapshot discovers one session's tree the way an mtrace-class tool
// does: one trace per receiver, walking hop-by-hop from the receiver toward
// the source. Each hop is visited one link-propagation delay after the
// previous one and reads that router's state *at visit time*, so hops of
// one snapshot can disagree (a torn snapshot) when the tree changes
// mid-trace. The snapshot is delivered — via done — when the slowest trace
// finishes, stamped with that completion time.
func (t *Tool) probeSnapshot(session int, done func(*Snapshot)) {
	e := t.net.Engine()
	base := t.domain.GroupOf(session, 1)
	empty := &Snapshot{At: e.Now(), Topology: core.Topology{Session: session}}
	if base == netsim.NoGroup {
		done(empty)
		return
	}
	t.Discoveries++
	source := t.domain.Source(base)

	// Receivers known right now: the trace starting points (the
	// controller's registration list in a real deployment).
	var starts []netsim.NodeID
	for _, n := range t.net.Nodes() {
		if t.inScope(n.ID) && t.domain.HasLocalMembers(n.ID, base) {
			starts = append(starts, n.ID)
		}
	}
	if len(starts) == 0 {
		done(empty)
		return
	}

	round := &probeRound{
		root:      netsim.NoNode,
		parent:    make(map[netsim.NodeID]netsim.NodeID),
		receivers: make(map[netsim.NodeID]bool),
	}
	pending := len(starts)
	t.pendingTraces += len(starts)
	finish := func() {
		t.pendingTraces--
		pending--
		if pending > 0 {
			return
		}
		// The traced edges become the snapshot once, keeping what the root
		// reaches: hops a tear left disconnected from it are dropped.
		done(&Snapshot{At: e.Now(), Topology: *core.NewTopology(session, round.root, round.parent, round.receivers)})
	}
	for _, rx := range starts {
		t.traceHop(base, source, rx, round, finish, 0)
	}
}

// traceHop records node n's state into the round, then schedules the visit
// to n's upstream hop after the link's propagation delay. The walk ends at
// the source (or when the next hop leaves the scope or the route breaks).
// hops counts the links walked so far: a loop-free routing table bounds any
// walk by the node count, so exceeding it means reroutes during the trace
// led it in circles, and the trace is abandoned rather than walked forever.
func (t *Tool) traceHop(base netsim.GroupID, source, n netsim.NodeID, round *probeRound, finish func(), hops int) {
	if hops > t.net.NumNodes() {
		finish()
		return
	}
	t.ProbePackets++
	// Read this hop's state at visit time.
	if t.domain.HasLocalMembers(n, base) {
		round.receivers[n] = true
	}
	if n == source {
		round.root = source
		finish()
		return
	}
	up := t.net.NextHop(n, source)
	if up == netsim.NoNode || !t.inScope(up) {
		// The domain boundary (or a broken route): this node is the
		// highest visible hop of its trace; it becomes the root unless a
		// deeper trace reaches further up.
		if round.root == netsim.NoNode {
			round.root = n
		}
		finish()
		return
	}
	if existing, seen := round.parent[n]; seen && existing == up {
		// Another trace already walked this tail: join it instead of
		// re-walking to the source (mtrace responses are cached the same
		// way; this also keeps probe counts near-linear in receivers).
		finish()
		return
	}
	round.parent[n] = up
	link := t.net.Node(n).LinkTo(up)
	delay := sim.Time(0)
	if link != nil {
		delay = link.Delay
	}
	// Each hop reads an arbitrary router's state, so the walk stays on the
	// global scheduler (stop-the-world between shard windows).
	sim.GlobalOf(t.net.Engine()).After(delay, sim.Func(func() {
		t.traceHop(base, source, up, round, finish, hops+1)
	}))
}

func (t *Tool) inScope(n netsim.NodeID) bool {
	return t.Scope == nil || t.Scope[n]
}
