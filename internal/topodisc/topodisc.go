// Package topodisc models the multicast topology discovery tool the paper
// assumes (an mtrace/MHealth-class tool). It periodically snapshots each
// session's distribution tree — the overlay of the per-layer multicast trees
// — from the routing state, and serves those snapshots to the controller
// with a configurable staleness lag. Staleness is the experimental variable
// of the paper's Figure 10: the controller acts on a picture of the network
// that is Staleness seconds old.
package topodisc

import (
	"sort"

	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// DefaultPeriod is how often the tool re-discovers each tree.
const DefaultPeriod = 1 * sim.Second

// Snapshot is one session's discovered topology at one instant. Because
// layers are cumulative, the session topology equals the base layer's tree;
// MaxLayer records the highest layer flowing to each on-tree node.
//
// A snapshot is immutable once the tool has recorded it: consecutive
// discoveries of an unchanged tree share one set of maps (only At differs),
// and the controller hands the same maps to the algorithm.
type Snapshot struct {
	At      sim.Time
	Session int
	Root    netsim.NodeID
	// Parent maps each on-tree node (except the root) to its parent.
	Parent map[netsim.NodeID]netsim.NodeID
	// Children maps each on-tree node to its children, sorted. One
	// snapshot's lists may be windows of a shared array, capacity-capped so
	// that appending to one never writes into another.
	Children map[netsim.NodeID][]netsim.NodeID
	// MaxLayer is the highest layer whose tree includes the node, i.e. the
	// layers traversing the link from its parent.
	MaxLayer map[netsim.NodeID]int
	// Receivers marks nodes with locally attached members of the base layer.
	Receivers map[netsim.NodeID]bool
}

// Nodes returns all on-tree nodes (root included), sorted by ID.
func (s *Snapshot) Nodes() []netsim.NodeID {
	out := []netsim.NodeID{s.Root}
	for n := range s.Parent {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Leaves returns the on-tree nodes with no children, sorted by ID.
func (s *Snapshot) Leaves() []netsim.NodeID {
	var out []netsim.NodeID
	for _, n := range s.Nodes() {
		if len(s.Children[n]) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// Empty reports whether the tree has no receivers at all.
func (s *Snapshot) Empty() bool { return len(s.Parent) == 0 && len(s.Receivers) == 0 }

// Tool periodically discovers session topologies and serves them with a
// staleness lag.
type Tool struct {
	net    *netsim.Network
	domain *mcast.Domain

	// Staleness is the age of the snapshot served by Discover: the newest
	// snapshot taken at or before now-Staleness is returned.
	Staleness sim.Time
	// Period is the discovery interval.
	Period sim.Time
	// Scope restricts discovery to one administrative domain: only nodes
	// in the set are visible, and the discovered tree is rooted at the
	// domain's ingress (the first scoped node on the path down from the
	// source). nil means the whole network — a single global domain.
	// This is the paper's multi-controller architecture (its Figure 3):
	// "Since the controller agent is concerned only with the topology in
	// its domain, discovering the local tree topology efficiently may be
	// more tractable than discovering the entire tree topology."
	Scope map[netsim.NodeID]bool

	// ProbeMode switches discovery from an instantaneous oracle read of
	// routing state to an mtrace-style trace: one query per receiver walks
	// hop-by-hop up the tree, reading each router's state when the probe
	// visits it (one link propagation delay per hop), and the snapshot
	// completes only when the slowest trace returns. Snapshots are then
	// inherently old ("discovering the tree topology is dependent on this
	// latency") and can be torn — different hops observed at different
	// instants — which is exactly what a real mtrace/MHealth deployment
	// produces. ProbePackets counts the control messages this costs.
	ProbeMode    bool
	ProbePackets int64

	sessions []int
	history  map[int][]*Snapshot
	groups   []netsim.GroupID // layerGroups' buffer
	walked   map[int]walk     // per session: the last periodic oracle walk
	ticker   *sim.Ticker

	// pendingTraces counts probe traces launched but not yet finished;
	// it must drain to zero once the engine goes idle (leak check).
	pendingTraces int

	// Discoveries counts snapshot operations (control-plane load).
	Discoveries int64
}

// walk is a recorded snapshot and the tree version it was read at.
type walk struct {
	snap    *Snapshot
	version uint64
}

// NewTool creates a discovery tool for the given sessions.
func NewTool(net *netsim.Network, domain *mcast.Domain, sessions []int) *Tool {
	t := &Tool{
		net:      net,
		domain:   domain,
		Period:   DefaultPeriod,
		sessions: append([]int(nil), sessions...),
		history:  make(map[int][]*Snapshot),
		walked:   make(map[int]walk),
	}
	return t
}

// Start begins periodic discovery. An immediate first snapshot is taken so
// Discover works from time zero.
func (t *Tool) Start() {
	if t.ticker != nil {
		return
	}
	t.snapshotAll()
	// Discovery reads forwarding state across every node, so on a
	// partitioned network it runs stop-the-world at window barriers.
	t.ticker = sim.Every(sim.GlobalOf(t.net.Engine()), t.Period, t.snapshotAll)
}

// Stop halts periodic discovery.
func (t *Tool) Stop() {
	if t.ticker != nil {
		t.ticker.Stop()
		t.ticker = nil
	}
}

func (t *Tool) snapshotAll() {
	for _, s := range t.sessions {
		if t.ProbeMode {
			session := s
			t.probeSnapshot(session, func(snap *Snapshot) { t.record(session, snap) })
			continue
		}
		// A settled group's tree rarely differs between two periods: walk it
		// only if a graft, prune, join or leave touched one of its layers,
		// else record the last walk again, maps shared, under the new time.
		v := t.treeVersion(s)
		if w, ok := t.walked[s]; ok && w.version == v {
			t.Discoveries++
			again := *w.snap
			again.At = t.net.Engine().Now()
			t.record(s, &again)
			continue
		}
		snap := t.SnapshotNow(s)
		t.walked[s] = walk{snap, v}
		t.record(s, snap)
	}
}

// treeVersion sums the versions of the session's layer groups. Versions only
// grow, so the sum holds still exactly when every one of them does.
func (t *Tool) treeVersion(session int) uint64 {
	var v uint64
	for _, g := range t.layerGroups(session) {
		v += t.domain.Version(g)
	}
	return v
}

// record inserts a completed snapshot into history, ordered by At. Probe
// rounds complete out of order when a slow round outlives a faster later
// one, and Discover's scan (and the trim below) depend on the ordering.
// History older than the staleness horizon relative to the newest held
// snapshot (with a generous margin of 2x plus a few periods) can never be
// served again and is trimmed.
func (t *Tool) record(session int, snap *Snapshot) {
	h := append(t.history[session], snap)
	for i := len(h) - 1; i > 0 && h[i-1].At > h[i].At; i-- {
		h[i-1], h[i] = h[i], h[i-1]
	}
	horizon := t.Staleness*2 + 5*t.Period
	newest := h[len(h)-1].At
	cut := 0
	for cut < len(h)-1 && newest-h[cut].At > horizon {
		cut++
	}
	t.history[session] = h[cut:]
}

// SnapshotNow discovers the current topology of a session directly from
// routing state (no staleness). It walks the base-layer tree from the
// source and overlays the higher layers' trees to get per-node MaxLayer.
// The maps and the walk's queue are sized from the session's newest
// recorded snapshot: a tree changes little between two discoveries.
func (t *Tool) SnapshotNow(session int) *Snapshot {
	t.Discoveries++
	e := t.net.Engine()
	groups := t.layerGroups(session)
	var prev Snapshot
	if h := t.history[session]; len(h) > 0 {
		prev = *h[len(h)-1]
	}
	snap := &Snapshot{
		At:        e.Now(),
		Session:   session,
		Root:      netsim.NoNode,
		Parent:    make(map[netsim.NodeID]netsim.NodeID, len(prev.Parent)),
		Children:  make(map[netsim.NodeID][]netsim.NodeID, len(prev.Children)),
		MaxLayer:  make(map[netsim.NodeID]int, len(prev.MaxLayer)),
		Receivers: make(map[netsim.NodeID]bool, len(prev.Receivers)),
	}
	if len(groups) == 0 {
		return snap
	}
	base := groups[0]
	source := t.domain.Source(base)
	root := source
	if t.Scope != nil && !t.Scope[source] {
		// Find the domain ingress: descend the tree until a scoped node
		// appears. A domain is assumed contiguous with a single ingress
		// per session (the shape of real administrative domains); if the
		// session does not enter the domain, the snapshot stays empty.
		root = t.findIngress(session, source)
		if root == netsim.NoNode {
			return snap
		}
	}
	snap.Root = root
	// BFS down the base-layer tree, confined to the scope. The walk's queue
	// holds every node's children side by side, in the order the nodes are
	// visited, so the child lists are cut out of it afterwards (it may move
	// while it grows): node queue[i]'s end at ends[i] and start where the
	// node before it left off.
	queue := append(make([]netsim.NodeID, 0, len(prev.Parent)+1), root)
	ends := make([]int, 0, cap(queue))
	for i := 0; i < len(queue); i++ {
		n := queue[i]
		snap.MaxLayer[n] = t.maxLayerAt(groups, n)
		if t.domain.HasLocalMembers(n, base) {
			snap.Receivers[n] = true
		}
		start := len(queue)
		queue = t.domain.AppendForwardingChildren(queue, n, base)
		if t.Scope != nil {
			kept := queue[:start]
			for _, c := range queue[start:] {
				if t.Scope[c] {
					kept = append(kept, c)
				}
			}
			queue = kept
		}
		for _, c := range queue[start:] {
			snap.Parent[c] = n
		}
		ends = append(ends, len(queue))
	}
	start := 1
	for i, end := range ends {
		// Capacity capped: appending to one list must not run into the next.
		var kids []netsim.NodeID
		if end > start {
			kids = queue[start:end:end]
		}
		snap.Children[queue[i]] = kids
		start = end
	}
	return snap
}

// findIngress walks the base-layer tree from `from` and returns the first
// scoped node, breadth-first, or NoNode.
func (t *Tool) findIngress(session int, from netsim.NodeID) netsim.NodeID {
	base := t.domain.GroupOf(session, 1)
	queue := []netsim.NodeID{from}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if t.Scope[n] {
			return n
		}
		queue = t.domain.AppendForwardingChildren(queue, n, base)
	}
	return netsim.NoNode
}

// layerGroups resolves a session's groups, layer 1 first, into a buffer
// that the next call reuses.
func (t *Tool) layerGroups(session int) []netsim.GroupID {
	t.groups = t.groups[:0]
	for l := 1; ; l++ {
		g := t.domain.GroupOf(session, l)
		if g == netsim.NoGroup {
			return t.groups
		}
		t.groups = append(t.groups, g)
	}
}

// maxLayerAt returns the highest layer, of those whose groups are given in
// layer order, whose tree covers node n.
func (t *Tool) maxLayerAt(groups []netsim.GroupID, n netsim.NodeID) int {
	max := 0
	for i, g := range groups {
		if t.domain.OnTree(n, g) || t.domain.HasLocalMembers(n, g) {
			max = i + 1
		}
	}
	return max
}

// Discover returns the session topology as the controller sees it: the
// newest snapshot taken at or before now-Staleness. With Staleness 0 this
// is simply the latest snapshot. Returns nil when no snapshot is old
// enough yet (early in a run with a large staleness).
func (t *Tool) Discover(session int) *Snapshot {
	h := t.history[session]
	if len(h) == 0 {
		return nil
	}
	cutoff := t.net.Engine().Now() - t.Staleness
	var best *Snapshot
	for _, s := range h {
		if s.At <= cutoff {
			best = s
		} else {
			break
		}
	}
	return best
}

// Sessions returns the sessions the tool tracks.
func (t *Tool) Sessions() []int { return t.sessions }

// PendingTraces returns how many probe traces are still in flight. Always
// zero in oracle mode; in probe mode it must return to zero when the
// engine drains, or a trace leaked.
func (t *Tool) PendingTraces() int { return t.pendingTraces }
