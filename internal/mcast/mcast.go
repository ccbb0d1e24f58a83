// Package mcast layers multicast distribution on top of netsim: group
// addressing, source-rooted shortest-path trees, receiver join (graft) and
// leave (prune) processing, and the group-leave latency the paper discusses
// in Section V.
//
// Every (session, layer) pair is one multicast group, exactly as in the
// paper's layered model where each layer is transmitted on its own multicast
// address. Routers keep per-group forwarding state: the set of downstream
// links that lead to at least one member, plus locally attached members.
//
// Joins propagate hop-by-hop toward the source along the unicast
// shortest-path tree (reverse-path), taking one link-propagation delay per
// hop, and stop at the first on-tree router — like an IGMP report followed
// by a PIM graft. Leaves are lazier: when the last member behind a router
// goes away, the router keeps forwarding for LeaveLatency (the IGMP
// last-member query interval) before pruning, so an over-subscribed layer
// keeps congesting the bottleneck for a while after the receiver drops it.
// The paper calls this out as a core difficulty of layered multicast.
//
// Forwarding state is one group-indexed slice of entries per node, grown
// on the control path to the highest group whose tree has crossed the node.
// The data path does no map access and no allocation — two slice indexes —
// and each entry caches its downstream children as a sorted slice with the
// outgoing links resolved alongside, rebuilt only on graft and prune.
package mcast

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"toposense/internal/netsim"
	"toposense/internal/obs"
	"toposense/internal/sim"
)

// DefaultLeaveLatency approximates IGMPv2 last-member query behaviour:
// traffic keeps flowing roughly this long after the last member leaves.
const DefaultLeaveLatency = 1 * sim.Second

// Member receives multicast data packets for groups it has joined.
type Member interface {
	RecvMulticast(p *netsim.Packet)
}

// groupKey identifies a group by its session and layer.
type groupKey struct {
	session, layer int
}

// groupInfo is the domain-wide registration of one group.
type groupInfo struct {
	id     netsim.GroupID
	key    groupKey
	source netsim.NodeID
}

// nodeGroupState is one router's forwarding entry for one group. The
// children currently forwarded to are kept sorted, with the outgoing link
// to each child cached in the parallel links slice, so the data path
// iterates both without consulting any map.
type nodeGroupState struct {
	children   []netsim.NodeID // downstream children, ascending
	links      []*netsim.Link  // links[i] carries traffic to children[i]; lazily resolved
	members    []Member        // locally attached members
	pruneTimer *treeEvent      // pending leave-latency expiry, nil if none

	// parent is the upstream node this router grafted toward, or NoNode
	// when off-tree (or orphaned by a failure). Tree repair needs it to
	// detach from the *old* parent after a reroute, which the routing
	// table can no longer answer.
	parent netsim.NodeID
}

func (s *nodeGroupState) active() bool {
	return len(s.members) > 0 || len(s.children) > 0
}

// addChild inserts c in sorted position (a no-op when already present) and
// caches the outgoing link.
func (s *nodeGroupState) addChild(c netsim.NodeID, link *netsim.Link) {
	i := 0
	for i < len(s.children) && s.children[i] < c {
		i++
	}
	if i < len(s.children) && s.children[i] == c {
		return
	}
	s.children = append(s.children, 0)
	s.links = append(s.links, nil)
	copy(s.children[i+1:], s.children[i:])
	copy(s.links[i+1:], s.links[i:])
	s.children[i] = c
	s.links[i] = link
}

// removeChild drops c, preserving order.
func (s *nodeGroupState) removeChild(c netsim.NodeID) {
	for i, have := range s.children {
		if have == c {
			s.children = append(s.children[:i], s.children[i+1:]...)
			s.links = append(s.links[:i], s.links[i+1:]...)
			return
		}
	}
}

// treeEventKind says what a pending tree-maintenance event does.
type treeEventKind uint8

const (
	evGraft  treeEventKind = iota // n's graft lands at up
	evPrune                       // n's prune lands at up
	evDetach                      // a repaired n's detach lands at its old parent up
	evLeave                       // n's leave-latency timer expires
)

// treeEvent is one pending tree-maintenance event, kept as an event record
// (sim.FreeList): it goes back to Domain.events when it fires, a leave
// timer also when it is cancelled.
type treeEvent struct {
	d     *Domain
	kind  treeEventKind
	cross bool // graft: n and up are in different shards
	n, up netsim.NodeID
	g     netsim.GroupID
	idle  sim.Time   // when n's last member left; 0 for a cascade prune
	h     sim.Handle // leave timer: cancels it
	fire  func()     // run, bound once
}

// Domain manages multicast state for an entire network. It installs itself
// as the MulticastHandler on every node.
type Domain struct {
	net          *netsim.Network
	LeaveLatency sim.Time

	groups []groupInfo                 // indexed by GroupID
	byKey  map[groupKey]netsim.GroupID // (session,layer) -> id

	// version[g] counts the changes to any router's children or members for
	// group g — everything a tree walk reads. Bumped atomically, like Grafts:
	// the changes land on any shard. One counter per group on its own slot
	// of a slice that only RegisterGroup (set-up) grows.
	version []atomic.Uint64

	// state[node][group] is the node's forwarding entry for the group, nil
	// (or beyond the slice) when the group's tree never crossed the node.
	// Each node's slice grows lazily on the control path (graft/join); the
	// data path only reads.
	state [][]*nodeGroupState

	// Grafts and Prunes count tree maintenance operations (for tests and
	// reporting). Repairs counts nodes re-homed (or orphaned) by route
	// changes after link failures. Grafts and prunes can fire from any
	// shard of a partitioned network, so the counters move atomically;
	// read them only while the engine is quiescent.
	Grafts, Prunes, Repairs int64

	events sim.FreeList[treeEvent] // pending grafts, prunes, detaches, leave timers

	// obs, when set, mirrors the tree-maintenance counters into the
	// observability registry and records graft/prune/repair events in the
	// flight recorder. All hooks sit on the control path; HandleMulticast
	// is untouched.
	obs *obs.Obs
}

// SetObs attaches an observability bundle; nil detaches it.
func (d *Domain) SetObs(o *obs.Obs) { d.obs = o }

// noteTree records one tree-maintenance operation with the bundle, if any.
// to is the relevant peer (the parent grafted toward or pruned from), or
// NoNode when there is none.
func (d *Domain) noteTree(kind obs.EventKind, n, to netsim.NodeID, g netsim.GroupID) {
	if d.obs == nil {
		return
	}
	switch kind {
	case obs.EvGraft:
		d.obs.Grafts.Inc()
	case obs.EvPrune:
		d.obs.Prunes.Inc()
	case obs.EvRepair:
		d.obs.Repairs.Inc()
	}
	session, layer := d.SessionLayer(g)
	d.obs.Rec.Record(obs.Event{
		At:      d.net.SchedulerFor(n).Now(),
		Kind:    kind,
		From:    int32(n),
		To:      int32(to),
		Session: int32(session),
		Layer:   int32(layer),
		Seq:     int64(g),
	})
}

// NewDomain creates the multicast domain and installs it on all current
// nodes of the network; nodes added afterwards are covered automatically
// via the network's OnAddNode hook.
func NewDomain(net *netsim.Network) *Domain {
	d := &Domain{
		net:          net,
		LeaveLatency: DefaultLeaveLatency,
		byKey:        make(map[groupKey]netsim.GroupID),
		// Preallocate one slot per node: on a partitioned network each
		// shard touches only its own nodes' slices, but a lazy append of
		// the outer slice itself would race across shards.
		state: make([][]*nodeGroupState, net.NumNodes()),
	}
	d.events.Bind = func(ev *treeEvent) { ev.d, ev.fire = d, ev.run }
	d.Install()
	net.OnAddNode = func(n *netsim.Node) {
		n.SetMulticastHandler(d)
		for int(n.ID) >= len(d.state) {
			d.state = append(d.state, nil)
		}
	}
	net.OnRouteChange(d.onRouteChange)
	return d
}

// Install (re)attaches the domain as multicast handler on every node.
func (d *Domain) Install() {
	for _, n := range d.net.Nodes() {
		n.SetMulticastHandler(d)
	}
}

// RegisterGroup declares a (session, layer) group rooted at source and
// returns its GroupID. Registering the same pair twice returns the original
// ID (the source must match).
func (d *Domain) RegisterGroup(session, layer int, source netsim.NodeID) netsim.GroupID {
	key := groupKey{session, layer}
	if id, ok := d.byKey[key]; ok {
		if d.groups[id].source != source {
			panic(fmt.Sprintf("mcast: group s%d/l%d re-registered with a different source", session, layer))
		}
		return id
	}
	id := netsim.GroupID(len(d.groups))
	d.groups = append(d.groups, groupInfo{id: id, key: key, source: source})
	d.version = append(d.version, atomic.Uint64{})
	d.byKey[key] = id
	return id
}

// Version returns group g's tree version: it differs between two reads
// exactly when some router's forwarding children or local members for g
// changed in between. Read it only while the engine is quiescent.
func (d *Domain) Version(g netsim.GroupID) uint64 { return d.version[g].Load() }

// touch records one change to group g's tree.
func (d *Domain) touch(g netsim.GroupID) { d.version[g].Add(1) }

// GroupOf returns the GroupID for (session, layer), or netsim.NoGroup.
func (d *Domain) GroupOf(session, layer int) netsim.GroupID {
	if id, ok := d.byKey[groupKey{session, layer}]; ok {
		return id
	}
	return netsim.NoGroup
}

// Source returns the source node of a group.
func (d *Domain) Source(g netsim.GroupID) netsim.NodeID { return d.groups[g].source }

// SessionLayer returns the (session, layer) a group carries.
func (d *Domain) SessionLayer(g netsim.GroupID) (int, int) {
	gi := d.groups[g]
	return gi.key.session, gi.key.layer
}

// NumGroups returns how many groups are registered.
func (d *Domain) NumGroups() int { return len(d.groups) }

func (d *Domain) stateOf(n netsim.NodeID, g netsim.GroupID) *nodeGroupState {
	for int(n) >= len(d.state) {
		d.state = append(d.state, nil)
	}
	for int(g) >= len(d.state[n]) {
		d.state[n] = append(d.state[n], nil)
	}
	if d.state[n][g] == nil {
		d.state[n][g] = &nodeGroupState{parent: netsim.NoNode}
	}
	return d.state[n][g]
}

// lookup returns n's entry for g, or nil. Zero allocations: the data path
// calls it per packet per hop.
func (d *Domain) lookup(n netsim.NodeID, g netsim.GroupID) *nodeGroupState {
	if int(n) >= len(d.state) || int(g) >= len(d.state[n]) {
		return nil
	}
	return d.state[n][g]
}

// upstream returns the next hop from n toward the group source, or NoNode
// when n is the source (or the source is unreachable).
func (d *Domain) upstream(n netsim.NodeID, g netsim.GroupID) netsim.NodeID {
	src := d.groups[g].source
	if n == src {
		return netsim.NoNode
	}
	return d.net.NextHop(n, src)
}

// Join attaches m as a member of group g at node n. The graft propagates
// hop-by-hop toward the source; forwarding state at each hop is created when
// the graft reaches it, so the first data packets arrive roughly one
// path-propagation-delay after the join.
func (d *Domain) Join(n netsim.NodeID, g netsim.GroupID, m Member) {
	st := d.stateOf(n, g)
	for _, existing := range st.members {
		if existing == m {
			return // already joined
		}
	}
	wasActive := st.active()
	st.members = append(st.members, m)
	d.touch(g)
	d.cancelPrune(n, st)
	if !wasActive {
		d.graftUpstream(n, g)
	}
}

// graftUpstream walks toward the source adding forwarding state, one link
// propagation delay per hop, stopping at the first already-active router.
// The grafting node records its chosen parent immediately; the in-flight
// graft installs forwarding state only if that choice still stands when it
// lands, so a reroute during the propagation delay cannot resurrect state
// on an abandoned branch.
func (d *Domain) graftUpstream(n netsim.NodeID, g netsim.GroupID) {
	st := d.stateOf(n, g)
	up := d.upstream(n, g)
	if up == netsim.NoNode {
		st.parent = netsim.NoNode
		return // n is the source (or disconnected)
	}
	link := d.net.Node(n).LinkTo(up)
	if link == nil {
		st.parent = netsim.NoNode
		return
	}
	st.parent = up
	atomic.AddInt64(&d.Grafts, 1)
	d.noteTree(obs.EvGraft, n, up, g)
	ev := d.newEvent(evGraft, n, up, g)
	ev.cross = d.net.CrossPartition(n, up)
	d.net.SchedulerBetween(n, up).Schedule(link.Delay, ev.fire)
}

// Leave detaches m from group g at node n. If that leaves the router with
// no members and no downstream children, the router keeps forwarding for
// LeaveLatency, then prunes itself off the tree.
func (d *Domain) Leave(n netsim.NodeID, g netsim.GroupID, m Member) {
	st := d.lookup(n, g)
	if st == nil {
		return
	}
	for i, existing := range st.members {
		if existing == m {
			st.members = append(st.members[:i], st.members[i+1:]...)
			d.touch(g)
			break
		}
	}
	d.maybeSchedulePrune(n, g, st)
}

func (d *Domain) maybeSchedulePrune(n netsim.NodeID, g netsim.GroupID, st *nodeGroupState) {
	if st.active() || st.pruneTimer != nil {
		return
	}
	// The timer fires in n's own context, so it lives on n's shard — which
	// also keeps the handle cancellable (cross-shard schedules are not).
	sched := d.net.SchedulerFor(n)
	ev := d.newEvent(evLeave, n, netsim.NoNode, g)
	ev.idle = sched.Now()
	ev.h = sched.Schedule(d.LeaveLatency, ev.fire)
	st.pruneTimer = ev
}

// pruneFromParent tells n's grafted parent to stop forwarding to n. The
// prune takes one link propagation delay; the upstream router then checks
// whether it too has gone idle. The parent is taken from the forwarding
// entry, not recomputed from routing: after a failure the two can differ,
// and the prune must reach the router that is actually forwarding to n.
// idle is when n's last member left, 0 for a cascade.
func (d *Domain) pruneFromParent(n netsim.NodeID, g netsim.GroupID, idle sim.Time) {
	st := d.lookup(n, g)
	if st == nil || st.parent == netsim.NoNode {
		return
	}
	up := st.parent
	st.parent = netsim.NoNode
	link := d.net.Node(n).LinkTo(up)
	if link == nil {
		return
	}
	atomic.AddInt64(&d.Prunes, 1)
	d.noteTree(obs.EvPrune, n, up, g)
	ev := d.newEvent(evPrune, n, up, g)
	ev.idle = idle
	d.net.SchedulerBetween(n, up).Schedule(link.Delay, ev.fire)
}

// cancelPrune clears n's pending leave-latency expiry. The handle must be
// cancelled on the scheduler that owns it — n's shard.
func (d *Domain) cancelPrune(n netsim.NodeID, st *nodeGroupState) {
	if ev := st.pruneTimer; ev != nil {
		d.net.SchedulerFor(n).Cancel(ev.h)
		st.pruneTimer = nil
		d.events.Put(ev)
	}
}

// newEvent takes a tree-event record and sets its arguments.
func (d *Domain) newEvent(kind treeEventKind, n, up netsim.NodeID, g netsim.GroupID) *treeEvent {
	ev := d.events.Get()
	ev.kind, ev.n, ev.up, ev.g = kind, n, up, g
	ev.cross, ev.idle, ev.h = false, 0, sim.Handle{}
	return ev
}

// run fires the event: a graft, prune or detach lands at up, or n's leave
// timer expires. The record goes back to the pool first, so what the event
// sets off reuses it.
func (ev *treeEvent) run() {
	d, kind, cross, n, up, g, idle := ev.d, ev.kind, ev.cross, ev.n, ev.up, ev.g, ev.idle
	if kind == evLeave {
		d.lookup(n, g).pruneTimer = nil // entries are never freed
	}
	d.events.Put(ev)
	switch kind {
	case evGraft:
		// A graft crossing a partition boundary executes in up's shard, where
		// reading n's state back would race. The reroute guard exists only for
		// link-failure repair, and faults are unsupported on partitioned
		// networks, so across a boundary the guard is provably never needed.
		if !cross {
			if cur := d.lookup(n, g); cur == nil || cur.parent != up {
				return // rerouted while the graft was in flight
			}
		}
		upSt := d.stateOf(up, g)
		wasActive := upSt.active()
		upSt.addChild(n, d.net.Node(up).LinkTo(n))
		d.touch(g)
		d.cancelPrune(up, upSt)
		if !wasActive {
			d.graftUpstream(up, g)
		}
	case evLeave:
		if d.lookup(n, g).active() {
			return // re-joined during the leave-latency window
		}
		d.pruneFromParent(n, g, idle)
	case evDetach:
		if cur := d.lookup(n, g); cur != nil && cur.parent == up {
			return // flapped back to the old parent before the detach landed
		}
		fallthrough // a detach lands like a cascade prune (idle 0)
	case evPrune:
		upSt := d.lookup(up, g)
		if upSt == nil {
			return
		}
		upSt.removeChild(n)
		d.touch(g)
		if d.obs != nil && idle > 0 {
			// Departure-to-prune latency: last member left at idle, the
			// prune just landed upstream. Cascade prunes (idle == 0) are
			// not re-counted — the latency was paid at the last-hop router.
			d.obs.DeparturePrune.Observe((d.net.SchedulerFor(up).Now() - idle).Seconds() * 1e3)
		}
		if !upSt.active() && upSt.pruneTimer == nil {
			// Upstream prunes promptly: the leave-latency cost was already
			// paid at the last-hop router.
			d.pruneFromParent(up, g, 0)
		}
	}
}

// onRouteChange repairs distribution trees after a link failure or repair.
// Routing notifications arrive per destination; only groups rooted at a
// changed destination can have moved, and within those only the nodes whose
// next hop toward the source changed need re-homing.
func (d *Domain) onRouteChange(changes []netsim.RouteChange) {
	for _, ch := range changes {
		for gi := range d.groups {
			if d.groups[gi].source != ch.Dst {
				continue
			}
			for _, n := range ch.Nodes {
				d.repair(n, d.groups[gi].id)
			}
		}
	}
}

// repair re-homes one on-tree router whose path toward the group source
// moved: detach from the old parent (one link delay, like a prune) and
// graft toward the new one. A router with no route left becomes an orphan —
// it keeps its local members and children but receives nothing until a
// later route change gives it a path to re-graft along.
func (d *Domain) repair(n netsim.NodeID, g netsim.GroupID) {
	st := d.lookup(n, g)
	if st == nil || !st.active() || n == d.groups[g].source {
		return
	}
	newUp := d.upstream(n, g)
	if newUp == st.parent {
		return
	}
	atomic.AddInt64(&d.Repairs, 1)
	d.noteTree(obs.EvRepair, n, newUp, g)
	old := st.parent
	st.parent = netsim.NoNode
	if old != netsim.NoNode {
		if link := d.net.Node(n).LinkTo(old); link != nil {
			d.net.SchedulerBetween(n, old).Schedule(link.Delay, d.newEvent(evDetach, n, old, g).fire)
		}
	}
	if newUp == netsim.NoNode {
		return // orphaned
	}
	d.graftUpstream(n, g)
}

// HandleMulticast implements netsim.MulticastHandler: deliver to local
// members and replicate onto every downstream link (never back upstream).
// This is the hottest loop of the simulator — per packet per hop — and it
// runs entirely on the dense state: no map lookups, no sorting, no
// allocation. Children are kept sorted by addChild, so replication order is
// deterministic by construction.
func (d *Domain) HandleMulticast(n *netsim.Node, p *netsim.Packet, from *netsim.Link) {
	st := d.lookup(n.ID, p.Group)
	if st == nil {
		return // not on this group's tree: prune already took effect
	}
	for _, m := range st.members {
		m.RecvMulticast(p)
	}
	for i, c := range st.children {
		if from != nil && c == from.From {
			continue // never forward back where it came from
		}
		link := st.links[i]
		if link == nil {
			// The link was missing when the graft installed this child
			// (asymmetric connectivity); re-resolve in case it exists now.
			if link = n.LinkTo(c); link == nil {
				continue
			}
			st.links[i] = link
		}
		link.Send(p)
	}
}

// ForwardingChildren returns the downstream children of node n for group g,
// sorted, in a slice of the caller's own (nil when there are none).
func (d *Domain) ForwardingChildren(n netsim.NodeID, g netsim.GroupID) []netsim.NodeID {
	return d.AppendForwardingChildren(nil, n, g)
}

// AppendForwardingChildren appends the downstream children of node n for
// group g, sorted, to dst. The topology discovery tool walks a tree with it
// without allocating a slice per node.
func (d *Domain) AppendForwardingChildren(dst []netsim.NodeID, n netsim.NodeID, g netsim.GroupID) []netsim.NodeID {
	if st := d.lookup(n, g); st != nil {
		dst = append(dst, st.children...)
	}
	return dst
}

// HasLocalMembers reports whether any member is attached at node n for g.
func (d *Domain) HasLocalMembers(n netsim.NodeID, g netsim.GroupID) bool {
	st := d.lookup(n, g)
	return st != nil && len(st.members) > 0
}

// OnTree reports whether node n currently forwards or consumes group g.
func (d *Domain) OnTree(n netsim.NodeID, g netsim.GroupID) bool {
	st := d.lookup(n, g)
	return st != nil && st.active()
}

// TreeCost returns the total number of links currently carrying multicast
// traffic across every group's distribution tree (each parent->child edge
// counted once). This is the dynamic-routing literature's "tree cost"
// metric; the churn study tracks its drift over time. Control-path only —
// call while the engine is quiescent (a sampler barrier), cost O(entries).
func (d *Domain) TreeCost() int {
	cost := 0
	for _, sts := range d.state {
		for _, st := range sts {
			if st != nil {
				cost += len(st.children)
			}
		}
	}
	return cost
}

// StateStats sizes the forwarding state — the numbers the fig_scale study
// tracks to show memory stays sublinear in nodes×groups.
type StateStats struct {
	Nodes   int // nodes with a forwarding-state slot
	Entries int // live (node, group) forwarding entries
	Bytes   int // approximate resident bytes of all slices and entries
}

// StateStats walks the forwarding state and reports its size. Control-path
// only (reporting); cost is O(entries).
func (d *Domain) StateStats() StateStats {
	const (
		ptrSize   = int(unsafe.Sizeof((*nodeGroupState)(nil)))
		nodeSize  = int(unsafe.Sizeof(netsim.NodeID(0)))
		entrySize = int(unsafe.Sizeof(nodeGroupState{}))
		ifaceSize = int(unsafe.Sizeof(Member(nil)))
		sliceSize = int(unsafe.Sizeof([]*nodeGroupState(nil)))
	)
	s := StateStats{Nodes: len(d.state), Bytes: cap(d.state) * sliceSize}
	for _, sts := range d.state {
		s.Bytes += cap(sts) * ptrSize
		for _, st := range sts {
			if st == nil {
				continue
			}
			s.Entries++
			s.Bytes += entrySize +
				cap(st.children)*nodeSize +
				cap(st.links)*ptrSize +
				cap(st.members)*ifaceSize
		}
	}
	return s
}
