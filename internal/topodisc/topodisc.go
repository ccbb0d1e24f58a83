// Package topodisc models the multicast topology discovery tool the paper
// assumes (an mtrace/MHealth-class tool). It periodically snapshots each
// session's distribution tree — the overlay of the per-layer multicast trees
// — from the routing state, and serves those snapshots to the controller
// with a configurable staleness lag. Staleness is the experimental variable
// of the paper's Figure 10: the controller acts on a picture of the network
// that is Staleness seconds old.
package topodisc

import (
	"slices"

	"toposense/internal/core"
	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// DefaultPeriod is how often the tool re-discovers each tree.
const DefaultPeriod = 1 * sim.Second

// Snapshot is one session's discovered topology: the tree of the base
// layer, which, because layers are cumulative, is the session topology. It
// is the algorithm's own breadth-first form, written during the walk, so the
// controller hands it to core as it is.
//
// A snapshot is immutable once the tool has recorded it: a period that
// finds the tree unchanged records the same snapshot again.
type Snapshot struct {
	core.Topology
	// At is when the tree was read: the walk's instant, or when the slowest
	// trace of a probe round returned. A snapshot recorded again by a later
	// period keeps the At of its walk.
	At sim.Time
	// Torn reports that the walk met a node a second time: a repair in
	// flight had it grafted under its new parent before the old one let
	// go. The second listing is not walked; the controller does not act on
	// a torn snapshot.
	Torn bool
}

// Nodes returns all on-tree nodes (root included), sorted by ID.
func (s *Snapshot) Nodes() []netsim.NodeID {
	out := slices.Clone(s.Node)
	slices.Sort(out)
	return out
}

// Empty reports whether the tree has no receivers at all: no node below
// the root, and none at it.
func (s *Snapshot) Empty() bool {
	return len(s.Node) == 0 || len(s.Node) == 1 && !s.Receiver[0]
}

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
	history  map[int][]discovery
	walked   map[int]walk // per session: the last periodic oracle walk
	ticker   *sim.Ticker
	// onWalk marks the nodes the running walk has met, by node ID; the
	// walk clears its marks when it ends.
	onWalk []bool

	// pendingTraces counts probe traces launched but not yet finished;
	// it must drain to zero once the engine goes idle (leak check).
	pendingTraces int

	// Discoveries counts snapshot operations (control-plane load).
	Discoveries int64
}

// discovery is one entry of a session's history: a snapshot, and when it
// was discovered.
type discovery struct {
	at   sim.Time
	snap *Snapshot
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
		history:  make(map[int][]discovery),
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
			t.probeSnapshot(session, func(snap *Snapshot) { t.record(session, snap.At, snap) })
			continue
		}
		// A settled group's tree rarely differs between two periods: walk it
		// only if a graft, prune, join or leave touched its base layer, else
		// record the last walk again under the new time.
		now := t.net.Engine().Now()
		v := t.treeVersion(s)
		if w, ok := t.walked[s]; ok && w.version == v {
			t.Discoveries++
			t.record(s, now, w.snap)
			continue
		}
		snap := t.SnapshotNow(s)
		t.walked[s] = walk{snap, v}
		t.record(s, now, snap)
	}
}

// treeVersion is the version of the session's base-layer group, the one
// tree a walk reads: it holds still exactly when the tree does. A session
// without groups has version 0 for good.
func (t *Tool) treeVersion(session int) uint64 {
	base := t.domain.GroupOf(session, 1)
	if base == netsim.NoGroup {
		return 0
	}
	return t.domain.Version(base)
}

// record inserts a completed snapshot, discovered at `at`, into history,
// ordered by discovery time. Probe rounds complete out of order when a slow
// round outlives a faster later one, and Discover's scan (and the trim
// below) depend on the ordering. History older than the staleness horizon
// relative to the newest held snapshot (with a generous margin of 2x plus a
// few periods) can never be served again and is trimmed: copied down over,
// with the vacated tail cleared so that the backing array does not keep the
// trimmed snapshots alive.
func (t *Tool) record(session int, at sim.Time, snap *Snapshot) {
	h := append(t.history[session], discovery{at, snap})
	for i := len(h) - 1; i > 0 && h[i-1].at > h[i].at; i-- {
		h[i-1], h[i] = h[i], h[i-1]
	}
	horizon := t.Staleness*2 + 5*t.Period
	newest := h[len(h)-1].at
	cut := 0
	for cut < len(h)-1 && newest-h[cut].at > horizon {
		cut++
	}
	if cut > 0 {
		n := copy(h, h[cut:])
		clear(h[n:])
		h = h[:n]
	}
	t.history[session] = h
}

// SnapshotNow discovers the current topology of a session directly from
// routing state (no staleness): it walks the base-layer tree breadth-first
// from the source, or from the domain's ingress when scoped, straight into
// the snapshot's arrays. The walk's queue is the snapshot's Node array:
// the children of the node at position i are appended as it is visited, so
// they sit side by side and each position's parent is known as it lands.
// The arrays are sized from the session's newest recorded snapshot: a tree
// changes little between two discoveries.
func (t *Tool) SnapshotNow(session int) *Snapshot {
	t.Discoveries++
	snap := &Snapshot{At: t.net.Engine().Now(), Topology: core.Topology{Session: session}}
	base := t.domain.GroupOf(session, 1)
	if base == netsim.NoGroup {
		return snap
	}
	root := t.domain.Source(base)
	if t.Scope != nil && !t.Scope[root] {
		// Find the domain ingress: descend the tree until a scoped node
		// appears. A domain is assumed contiguous with a single ingress
		// per session (the shape of real administrative domains); if the
		// session does not enter the domain, the snapshot stays empty.
		root = t.findIngress(session, root)
		if root == netsim.NoNode {
			return snap
		}
	}
	size := 16
	if h := t.history[session]; len(h) > 0 {
		n := len(h[len(h)-1].snap.Node)
		size += n + n/16
	}
	tp := &snap.Topology
	tp.Node = append(make([]netsim.NodeID, 0, size), root)
	tp.Parent = append(make([]int32, 0, size), -1)
	tp.KidStart = make([]int32, 0, size+1)
	tp.Receiver = make([]bool, 0, size)
	if len(t.onWalk) < t.net.NumNodes() {
		t.onWalk = make([]bool, t.net.NumNodes())
	}
	t.onWalk[root] = true
	for i := 0; i < len(tp.Node); i++ {
		n := tp.Node[i]
		tp.Receiver = append(tp.Receiver, t.domain.HasLocalMembers(n, base))
		start := len(tp.Node)
		tp.KidStart = append(tp.KidStart, int32(start))
		tp.Node = t.domain.AppendForwardingChildren(tp.Node, n, base)
		kept := tp.Node[:start]
		for _, c := range tp.Node[start:] {
			if t.Scope != nil && !t.Scope[c] {
				continue
			}
			if t.onWalk[c] {
				snap.Torn = true
				continue
			}
			t.onWalk[c] = true
			kept = append(kept, c)
			tp.Parent = append(tp.Parent, int32(i))
		}
		tp.Node = kept
	}
	tp.KidStart = append(tp.KidStart, int32(len(tp.Node)))
	for _, n := range tp.Node {
		t.onWalk[n] = false
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

// Discover returns the session topology as the controller sees it: the
// newest snapshot taken at or before now-Staleness. With Staleness 0 this
// is simply the latest snapshot. Returns nil when no snapshot is old
// enough yet (early in a run with a large staleness).
func (t *Tool) Discover(session int) *Snapshot {
	cutoff := t.net.Engine().Now() - t.Staleness
	var best *Snapshot
	for _, r := range t.history[session] {
		if r.at > cutoff {
			break
		}
		best = r.snap
	}
	return best
}

// Sessions returns the sessions the tool tracks.
func (t *Tool) Sessions() []int { return t.sessions }

// PendingTraces returns how many probe traces are still in flight. Always
// zero in oracle mode; in probe mode it must return to zero when the
// engine drains, or a trace leaked.
func (t *Tool) PendingTraces() int { return t.pendingTraces }
