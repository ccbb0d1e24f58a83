package topodisc

import (
	"toposense/internal/netsim"
	"toposense/internal/sim"
)

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
	snap := &Snapshot{
		At:        e.Now(),
		Session:   session,
		Root:      netsim.NoNode,
		Parent:    make(map[netsim.NodeID]netsim.NodeID),
		Children:  make(map[netsim.NodeID][]netsim.NodeID),
		MaxLayer:  make(map[netsim.NodeID]int),
		Receivers: make(map[netsim.NodeID]bool),
	}
	if base == netsim.NoGroup {
		done(snap)
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
		done(snap)
		return
	}

	pending := len(starts)
	t.pendingTraces += len(starts)
	finish := func() {
		t.pendingTraces--
		pending--
		if pending > 0 {
			return
		}
		snap.At = e.Now()
		t.rebuildChildren(snap, source)
		done(snap)
	}
	for _, rx := range starts {
		t.traceHop(session, base, source, rx, snap, finish, 0)
	}
}

// traceHop records node n's state into snap, then schedules the visit to
// n's upstream hop after the link's propagation delay. The walk ends at the
// source (or when the next hop leaves the scope or the route breaks).
// hops counts the links walked so far: a loop-free routing table bounds any
// walk by the node count, so exceeding it means reroutes during the trace
// led it in circles, and the trace is abandoned rather than walked forever.
func (t *Tool) traceHop(session int, base netsim.GroupID, source, n netsim.NodeID, snap *Snapshot, finish func(), hops int) {
	if hops > t.net.NumNodes() {
		finish()
		return
	}
	t.ProbePackets++
	// Read this hop's state at visit time.
	if ml := t.maxLayerAt(t.layerGroups(session), n); ml > snap.MaxLayer[n] {
		snap.MaxLayer[n] = ml
	}
	if t.domain.HasLocalMembers(n, base) {
		snap.Receivers[n] = true
	}
	if n == source {
		snap.Root = source
		finish()
		return
	}
	up := t.net.NextHop(n, source)
	if up == netsim.NoNode || !t.inScope(up) {
		// The domain boundary (or a broken route): this node is the
		// highest visible hop of its trace; it becomes the root unless a
		// deeper trace reaches further up.
		if snap.Root == netsim.NoNode {
			snap.Root = n
		}
		finish()
		return
	}
	if existing, seen := snap.Parent[n]; seen && existing == up {
		// Another trace already walked this tail: join it instead of
		// re-walking to the source (mtrace responses are cached the same
		// way; this also keeps probe counts near-linear in receivers).
		finish()
		return
	}
	snap.Parent[n] = up
	link := t.net.Node(n).LinkTo(up)
	delay := sim.Time(0)
	if link != nil {
		delay = link.Delay
	}
	// Each hop reads an arbitrary router's state, so the walk stays on the
	// global scheduler (stop-the-world between shard windows).
	sim.GlobalOf(t.net.Engine()).Schedule(delay, func() {
		t.traceHop(session, base, source, up, snap, finish, hops+1)
	})
}

// rebuildChildren derives the Children lists from the traced Parent edges
// and prunes hops that ended up disconnected from the root (tears).
func (t *Tool) rebuildChildren(snap *Snapshot, source netsim.NodeID) {
	if snap.Root == netsim.NoNode {
		return
	}
	children := make(map[netsim.NodeID][]netsim.NodeID, len(snap.Parent))
	for c, p := range snap.Parent {
		children[p] = append(children[p], c)
	}
	// Keep only nodes reachable from the root.
	reach := map[netsim.NodeID]bool{snap.Root: true}
	queue := []netsim.NodeID{snap.Root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		kids := children[n]
		sortNodeIDs(kids)
		snap.Children[n] = kids
		for _, c := range kids {
			reach[c] = true
			queue = append(queue, c)
		}
	}
	for c := range snap.Parent {
		if !reach[c] {
			delete(snap.Parent, c)
			delete(snap.MaxLayer, c)
			delete(snap.Receivers, c)
		}
	}
}

func (t *Tool) inScope(n netsim.NodeID) bool {
	return t.Scope == nil || t.Scope[n]
}

func sortNodeIDs(ids []netsim.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
