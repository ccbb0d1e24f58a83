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
// Forwarding state is one group-indexed row of entries per node, grown on
// the control path to the highest group whose tree has crossed the node.
// The data path does no map access and no allocation — two slice indexes —
// and each entry keeps one child table of (child, outgoing link) pairs,
// ascending by child, changed only on graft and prune. Entries come from
// chunked records and rows, child tables and member lists from capacity-class
// array pools, so a tree reaching a node for the first time costs a share of
// a pool refill, not an allocation of its own.
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
	onTree []func() // run when the source node's entry becomes active
}

// child is one row of an entry's child table: a downstream child and the
// outgoing link that carries traffic to it, nil while the link does not
// exist (a child grafted over a one-way uplink) and resolved on first use.
type child struct {
	node netsim.NodeID
	link *netsim.Link
}

// nodeGroupState is one router's forwarding entry for one group. The
// children currently forwarded to sit in one table, ascending by child,
// so the data path walks it without consulting any map. The child table
// and the member list are arrays of the Domain's pools.
type nodeGroupState struct {
	children   []child    // downstream children with their links, ascending by node
	members    []Member   // locally attached members
	pruneTimer *treeEvent // pending leave-latency expiry, nil if none

	// parent is the upstream node this router grafted toward, or NoNode
	// when off-tree (or orphaned by a failure). Tree repair needs it to
	// detach from the *old* parent after a reroute, which the routing
	// table can no longer answer.
	parent netsim.NodeID
}

func (s *nodeGroupState) active() bool {
	return len(s.members) > 0 || len(s.children) > 0
}

// addChild inserts c with its outgoing link in sorted position (a no-op
// when already present); a full table is swapped for a larger one from
// pool.
func (s *nodeGroupState) addChild(pool *sim.ArrayPool[child], c netsim.NodeID, link *netsim.Link) {
	i := 0
	for i < len(s.children) && s.children[i].node < c {
		i++
	}
	if i < len(s.children) && s.children[i].node == c {
		return
	}
	s.children = append(pool.Grow(s.children, len(s.children)+1), child{})
	copy(s.children[i+1:], s.children[i:])
	s.children[i] = child{node: c, link: link}
}

// removeChild drops c, preserving order.
func (s *nodeGroupState) removeChild(c netsim.NodeID) {
	for i, have := range s.children {
		if have.node == c {
			s.children = append(s.children[:i], s.children[i+1:]...)
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
// (sim.FreeList) that is its own sim.Action: it goes back to Domain.events
// when it fires, a leave timer also when it is cancelled.
type treeEvent struct {
	d     *Domain
	kind  treeEventKind
	cross bool // graft: n and up are in different shards
	n, up netsim.NodeID
	g     netsim.GroupID
	idle  sim.Time   // when n's last member left; 0 for a cascade prune
	h     sim.Handle // leave timer: cancels it
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
	// (or beyond the row) when the group's tree never crossed the node.
	// Each node's row grows lazily on the control path (graft/join); the
	// data path only reads.
	state [][]*nodeGroupState

	// The forwarding state's storage. Entries are records, made 64 at a
	// time and never given back (rows hold pointers, so growing a row
	// never moves one). Rows, child tables and member lists are arrays of
	// capacity-class pools: one that outgrows its class goes back for the
	// next holder. All four lock, since grafts land on any shard.
	entries  sim.FreeList[nodeGroupState]
	rows     *sim.ArrayPool[*nodeGroupState]
	children *sim.ArrayPool[child]
	members  *sim.ArrayPool[Member]

	// Grafts and Prunes count tree maintenance operations (for tests and
	// reporting). Repairs counts nodes re-homed (or orphaned) by route
	// changes after link failures. Grafts and prunes can fire from any
	// shard of a partitioned network, so the counters move atomically;
	// read them only while the engine is quiescent.
	Grafts, Prunes, Repairs int64

	events sim.FreeList[treeEvent] // pending grafts, prunes, detaches, leave timers

	// obs, when set, records graft/prune/repair events in the flight
	// recorder and departure-to-prune latencies. All hooks sit on the
	// control path; HandleMulticast is untouched.
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
	session, layer := d.SessionLayer(g)
	d.obs.Rec.RecordIn(d.obs.Context(n), obs.Event{
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
		state:    make([][]*nodeGroupState, net.NumNodes()),
		rows:     sim.NewArrayPool(&junkEntry),
		children: sim.NewArrayPool(child{node: junkNode}),
		members:  sim.NewArrayPool[Member](junkMember{}),
	}
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

// OnSourceReached registers fn to run each time group g's tree comes to
// reach its source node: the source node's entry goes from inactive to
// active, on a Join at the source node or when a graft lands there. fn runs
// in the source node's context (or at a barrier, for a Join made there).
// Register during set-up.
func (d *Domain) OnSourceReached(g netsim.GroupID, fn func()) {
	d.groups[g].onTree = append(d.groups[g].onTree, fn)
}

// activated follows n's entry for g going from inactive to active: graft
// toward the source or, at the source node itself, run the group's
// OnSourceReached hooks.
func (d *Domain) activated(n netsim.NodeID, g netsim.GroupID) {
	if gi := &d.groups[g]; n == gi.source {
		for _, fn := range gi.onTree {
			fn()
		}
	}
	d.graftUpstream(n, g)
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

// rowMin is the smallest row capacity. Each growth step leaves the
// outgrown row in the pool, where it waits for a row of its class that
// rows growing in step (every node gaining a layer) never ask for, so a
// step below four slots costs more than the at most three slots it saves.
const rowMin = 4

// stateOf returns n's entry for g, making it when g's tree reaches n for
// the first time: the row grows to hold g, from the row pool when it is
// full, and the entry is a fresh record.
func (d *Domain) stateOf(n netsim.NodeID, g netsim.GroupID) *nodeGroupState {
	for int(n) >= len(d.state) {
		d.state = append(d.state, nil)
	}
	row := d.state[n]
	if have := len(row); int(g) >= have {
		row = d.rows.Grow(row, max(int(g)+1, rowMin))[:g+1]
		clear(row[have:])
		d.state[n] = row
	}
	st := row[g]
	if st == nil {
		st = d.entries.Get()
		*st = nodeGroupState{parent: netsim.NoNode}
		row[g] = st
	}
	return st
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
	st.members = append(d.members.Grow(st.members, len(st.members)+1), m)
	d.touch(g)
	d.cancelPrune(n, st)
	if !wasActive {
		d.activated(n, g)
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
	if st.parent != up {
		// Still attached to a parent the route no longer leads to: n was
		// rerouted while it sat in its leave-latency window, which repair
		// passes over. Without the detach that parent forwards to n, and
		// keeps n as a child after n prunes toward its new parent.
		d.detach(n, st, g)
	}
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
	d.net.SchedulerBetween(n, up).After(link.Delay, ev)
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
	ev.h = sched.After(d.LeaveLatency, ev)
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
	d.net.SchedulerBetween(n, up).After(link.Delay, ev)
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
	ev.d, ev.kind, ev.n, ev.up, ev.g = d, kind, n, up, g
	ev.cross, ev.idle, ev.h = false, 0, sim.Handle{}
	return ev
}

// Fire runs the event: a graft, prune or detach lands at up, or n's leave
// timer expires. The record goes back to the pool first, so what the event
// sets off reuses it.
func (ev *treeEvent) Fire() {
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
		upSt.addChild(d.children, n, d.net.Node(up).LinkTo(n))
		d.touch(g)
		d.cancelPrune(up, upSt)
		if !wasActive {
			d.activated(up, g)
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
			d.obs.DeparturePrune.ObserveIn(d.obs.Context(up), (d.net.SchedulerFor(up).Now()-idle).Seconds()*1e3)
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
	d.detach(n, st, g)
	if newUp == netsim.NoNode {
		return // orphaned
	}
	d.graftUpstream(n, g)
}

// detach clears n's parent for g and tells the old parent, one link delay
// later (like a prune), to stop forwarding to n.
func (d *Domain) detach(n netsim.NodeID, st *nodeGroupState, g netsim.GroupID) {
	old := st.parent
	st.parent = netsim.NoNode
	if old == netsim.NoNode {
		return
	}
	if link := d.net.Node(n).LinkTo(old); link != nil {
		d.net.SchedulerBetween(n, old).After(link.Delay, d.newEvent(evDetach, n, old, g))
	}
}

// HandleMulticast implements netsim.MulticastHandler: deliver to local
// members and replicate onto every downstream link (never back upstream).
// This is the hottest loop of the simulator — per packet per hop — and it
// runs entirely on the dense state: no map lookups, no sorting, no
// allocation. The child table is kept sorted by addChild, so replication
// order is deterministic by construction.
func (d *Domain) HandleMulticast(n *netsim.Node, p *netsim.Packet, from *netsim.Link) {
	st := d.lookup(n.ID, p.Group)
	if st == nil {
		return // not on this group's tree: prune already took effect
	}
	for _, m := range st.members {
		m.RecvMulticast(p)
	}
	for i := range st.children {
		c := &st.children[i]
		if from != nil && c.node == from.From {
			continue // never forward back where it came from
		}
		link := c.link
		if link == nil {
			// The link was missing when the graft installed this child
			// (asymmetric connectivity); re-resolve in case it exists now.
			if link = n.LinkTo(c.node); link == nil {
				continue
			}
			c.link = link
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
		for _, c := range st.children {
			dst = append(dst, c.node)
		}
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
	Bytes   int // resident bytes of the node table, the rows and the entries
}

// StateStats walks the forwarding state and reports its size: the node
// table, each row's capacity, and each entry with the capacity of its
// child table and member list. Pooled arrays nobody holds and the unused
// tails of pool blocks are not counted, so the figure depends on the
// trees alone, not on how many shards built them. Control-path only
// (reporting); cost is O(entries).
func (d *Domain) StateStats() StateStats {
	const (
		ptrSize   = int(unsafe.Sizeof((*nodeGroupState)(nil)))
		childSize = int(unsafe.Sizeof(child{}))
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
			s.Bytes += entrySize + cap(st.children)*childSize + cap(st.members)*ifaceSize
		}
	}
	return s
}

// junkNode lies far outside any network: indexing by it panics.
const junkNode = -1 << 40

// junkMember is the member-list junk: delivering to it panics.
type junkMember struct{}

func (junkMember) RecvMulticast(*netsim.Packet) {
	panic("mcast: member list read after it was outgrown")
}

// junkEntry is the row junk: a stale row read finds an entry whose member
// panics on delivery and whose one child is junk.
var junkEntry = nodeGroupState{
	children: []child{{node: junkNode}},
	members:  []Member{junkMember{}},
	parent:   junkNode,
}
