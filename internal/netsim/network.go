package netsim

import (
	"fmt"
	"sync"
	"unsafe"

	"toposense/internal/sim"
)

// Network owns the nodes and links of one simulated topology and the routing
// tables between them. It is bound to a single scheduler — the plain
// sim.Engine, or a sim.ShardedEngine once Partition has mapped each node to
// a shard.
type Network struct {
	engine sim.Scheduler
	nodes  []*Node

	// Sharded-run state, nil on single-threaded networks: the engine the
	// network was partitioned onto, the per-node domain labels, and each
	// node's shard scheduler. See Partition. A non-nil se is the one answer
	// to "is this network partitioned?": it switches the packet pool to its
	// synchronized variant, which single-threaded networks never pay for.
	se     *sim.ShardedEngine
	doms   []int
	scheds []sim.Scheduler
	poolMu sync.Mutex

	// nextHop[src][dst] is the neighbor of src on the shortest path to dst,
	// or NoNode. Built lazily and invalidated on topology changes.
	nextHop [][]NodeID

	// tree is O(N) tree-mode routing, used instead of the O(N²) nextHop
	// table whenever the live graph is a symmetric forest (see
	// routes_tree.go). denseOnly pins the network to the dense tables once
	// fault injection has been used.
	tree      *treeRoutes
	denseOnly bool
	// epoch numbers the routes: every change to what NextHop answers bumps
	// it, which retires every node's next-hop memo at once (Node.route). A
	// memo could only come back to life after 2^32 topology changes.
	epoch uint32

	// Unroutable counts unicast packets dropped for lack of a route.
	Unroutable int64

	// OnAddNode, if set, observes every node created after it is
	// installed. The multicast layer uses it to equip new nodes with a
	// forwarding handler automatically.
	OnAddNode func(*Node)

	// routeListeners observe routing-table updates caused by link state
	// changes (Link.SetDown / SetUp).
	routeListeners []func([]RouteChange)

	// probes observe packet events on every link of the network.
	probes []Probe

	// pktFree is the packet free list backing NewPacket; single-threaded
	// like everything else bound to the engine, so no sync. An empty list
	// hands out pktCarve, the rest of the last chunk of pktChunk packets
	// made in one allocation.
	pktFree   []*Packet
	pktCarve  []Packet
	pktAllocs uint64

	// rings holds the arrays of the links' queue and pipeline rings
	// (pktRing) between uses.
	rings *sim.ArrayPool[*Packet]

	// Nodes, links and agent-list shares live as long as the network, so
	// they are carved in creation order from blocks (blocks.go) instead
	// of being allocated one at a time; these are the unused rests of the
	// last blocks.
	nodeBlk  []Node
	linkBlk  []Link
	agentBlk []Agent
	// agentsHeld counts the agent-list entries carved so far; it sizes
	// the next agent block.
	agentsHeld int
	// agentOnes heads the list of one-entry agent shares nodes outgrew,
	// linked through their one slot (giveAgentShare).
	agentOnes *Agent
	// numLinks counts the links; pend and pendTail chain, through
	// Link.nextOut and in creation order, the links added since the
	// out-link tables were last laid out (see seal).
	numLinks       int
	pend, pendTail *Link
}

// pktChunk is how many packets NewPacket makes in one allocation: as many
// as fill an 8 KB size class (73 of 112 bytes), which a round 64 would
// leave a seventh empty.
const pktChunk = 8 << 10 / int(unsafe.Sizeof(Packet{}))

// junkPacket fills the ring arrays given back to the pool while sim.Poison
// is set: its nodes lie far outside any network, so a ring still reading an
// array it gave back panics at the first lookup.
var junkPacket = &Packet{Src: -1 << 40, Dst: -1 << 40, Group: -1 << 40, Size: -1 << 40}

// New creates an empty network on the given scheduler. Passing the plain
// *sim.Engine keeps the fully deterministic single-threaded semantics;
// passing a *sim.ShardedEngine and later calling Partition runs the model
// as a conservative parallel simulation.
func New(engine sim.Scheduler) *Network {
	return &Network{engine: engine, rings: sim.NewArrayPool(junkPacket)}
}

// Engine returns the scheduler the network was built on. On a partitioned
// network this is the engine handle, not any particular shard: model code
// that runs inside node events must use SchedulerFor/SchedulerBetween so
// its clock and queue are the owning shard's.
func (n *Network) Engine() sim.Scheduler { return n.engine }

// Partitioned reports whether the network executes on more than one shard.
func (n *Network) Partitioned() bool { return n.se != nil }

// SchedulerFor returns the scheduler that owns id's events: the node's
// shard on a partitioned network, the network's engine otherwise.
func (n *Network) SchedulerFor(id NodeID) sim.Scheduler {
	if n.se == nil {
		return n.engine
	}
	return n.scheds[id]
}

// SchedulerBetween returns the scheduler that code running in from's
// context must use to schedule an event that will execute in to's context
// (protocol continuations traveling a link, like multicast grafts). On a
// partitioned network with from and to in different shards this is a
// cross-shard channel: the delay must be at least the lookahead — true by
// construction for anything riding a boundary link — and the schedule is
// not cancellable.
func (n *Network) SchedulerBetween(from, to NodeID) sim.Scheduler {
	if n.se == nil {
		return n.engine
	}
	return n.se.Cross(n.doms[from], n.doms[to])
}

// CrossPartition reports whether a and b live in different shards — i.e.
// whether an event scheduled between them executes in a different shard's
// context than the caller's, so it must not touch the caller's shard state.
func (n *Network) CrossPartition(a, b NodeID) bool {
	return n.se != nil && n.doms[a] != n.doms[b]
}

// ShardOf returns the shard that runs id's events on a partitioned network,
// and 0 otherwise.
func (n *Network) ShardOf(id NodeID) int {
	if n.se == nil {
		return 0
	}
	return n.doms[id]
}

// Partition maps each node onto a shard of se according to domains (one
// dense label per node, in node-ID order) and shapes se to match: the
// lookahead becomes the minimum propagation delay over partition-boundary
// links, routing tables are materialized eagerly (lazy builds would race),
// every link is bound to its endpoints' shard schedulers, and the packet
// pool switches to its synchronized variant. With zero or one distinct
// labels the engine stays degenerate — byte-identical to the plain Engine —
// and the network stays on the single-threaded fast paths.
//
// The topology must be complete: adding nodes or links after Partition
// panics. Fault injection is not supported on a partitioned network.
func (n *Network) Partition(se *sim.ShardedEngine, domains []int) {
	if n.se != nil {
		panic("netsim: Partition called twice")
	}
	if domains != nil && len(domains) != len(n.nodes) {
		panic(fmt.Sprintf("netsim: Partition with %d domain labels for %d nodes", len(domains), len(n.nodes)))
	}
	p := 1
	for _, d := range domains {
		if d < 0 {
			panic("netsim: negative domain label")
		}
		if d+1 > p {
			p = d + 1
		}
	}
	if p <= 1 {
		return // degenerate: single-threaded semantics on se
	}
	lookahead := sim.Time(-1)
	for _, node := range n.nodes {
		for _, l := range node.Links() {
			if domains[l.From] == domains[l.To] {
				continue
			}
			if l.Delay <= 0 {
				panic(fmt.Sprintf("netsim: partition-boundary link %v has zero delay", l))
			}
			if lookahead < 0 || l.Delay < lookahead {
				lookahead = l.Delay
			}
		}
	}
	if lookahead <= 0 {
		panic("netsim: partitioning has no boundary links between distinct domains")
	}
	se.SetPartitions(p, lookahead)
	n.se = se
	n.doms = domains
	n.scheds = make([]sim.Scheduler, len(n.nodes))
	for i := range n.nodes {
		n.scheds[i] = se.Shard(domains[i])
	}
	n.ensureRoutes()
	for _, node := range n.nodes {
		for _, l := range node.Links() {
			l.sched = n.scheds[l.From]
			l.recvSched = n.scheds[l.To]
			if domains[l.From] != domains[l.To] {
				l.dsched = se.Cross(domains[l.From], domains[l.To])
				l.mu, l.locked = &sync.Mutex{}, true
			} else {
				l.dsched = n.scheds[l.To]
			}
		}
	}
}

// AttachProbe registers a probe observing packet events on every link of
// the network, including links created later: it flags every link made so
// far as probed, and addLink flags the later ones.
func (n *Network) AttachProbe(p Probe) {
	n.probes = append(n.probes, p)
	for _, node := range n.nodes {
		for _, ol := range node.table() {
			ol.link.probed = true
		}
	}
}

// NewPacket takes a zeroed packet from the network's pool (or, the first
// time through, from the chunk the pool carves new ones from), holding one
// reference for the caller. Fill in the fields, hand it to
// Send/SendUnicast/SendMulticastLocal, then call Release; the struct is
// recycled once every link that accepted it has delivered or dropped it.
func (n *Network) NewPacket() *Packet {
	if n.se != nil {
		n.poolMu.Lock()
		defer n.poolMu.Unlock()
	}
	var p *Packet
	if k := len(n.pktFree); k > 0 {
		p = n.pktFree[k-1]
		n.pktFree[k-1] = nil
		n.pktFree = n.pktFree[:k-1]
	} else {
		if len(n.pktCarve) == 0 {
			n.pktCarve = make([]Packet, pktChunk)
		}
		p = &n.pktCarve[0]
		n.pktCarve = n.pktCarve[1:]
		n.pktAllocs++
	}
	p.pool = n
	p.refs = 1
	return p
}

// PacketAllocs returns how many packet structs the pool has ever handed out
// new; in steady state this stops growing.
func (n *Network) PacketAllocs() uint64 { return n.pktAllocs }

// RingArraysMade returns how many arrays the links' packet rings have made
// so far; once every link has held its most packets it stops moving.
func (n *Network) RingArraysMade() int64 { return n.rings.Made() }

// PacketsLive returns how many pooled packets are out of the free list:
// referenced by a producer or a link. It is zero once every agent has
// stopped and the engine has drained, or a Release was leaked or doubled.
// Read it only while the engine is quiescent.
func (n *Network) PacketsLive() int { return int(n.pktAllocs) - len(n.pktFree) }

// AddNode creates a node with a human-readable name and returns it.
func (n *Network) AddNode(name string) *Node {
	if n.se != nil {
		panic("netsim: AddNode on a partitioned network")
	}
	node := carve(&n.nodeBlk, len(n.nodes), nodeBlock)
	node.ID, node.Name, node.net, node.top = NodeID(len(n.nodes)), name, n, -1
	n.nodes = append(n.nodes, node)
	n.invalidateRoutes()
	if n.OnAddNode != nil {
		n.OnAddNode(node)
	}
	return node
}

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(n.nodes) {
		panic(fmt.Sprintf("netsim: no node %d", id))
	}
	return n.nodes[id]
}

// Nodes returns all nodes in ID order.
func (n *Network) Nodes() []*Node { return n.nodes }

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumLinks returns the link count, each direction of a connection counted
// once.
func (n *Network) NumLinks() int { return n.numLinks }

// LinkConfig carries the parameters of one direction of a connection.
type LinkConfig struct {
	Bandwidth  float64  // bits per second; must be > 0
	Delay      sim.Time // propagation delay
	QueueLimit int      // drop-tail capacity in packets; 0 means DefaultQueueLimit
	Policy     DropPolicy
}

// Connect creates a symmetric pair of links between a and b with identical
// parameters in both directions and returns them (a->b, b->a).
func (n *Network) Connect(a, b *Node, cfg LinkConfig) (*Link, *Link) {
	return n.addLink(a, b, cfg), n.addLink(b, a, cfg)
}

// ConnectAsym creates one unidirectional link from a to b.
func (n *Network) ConnectAsym(a, b *Node, cfg LinkConfig) *Link {
	return n.addLink(a, b, cfg)
}

func (n *Network) addLink(from, to *Node, cfg LinkConfig) *Link {
	if n.se != nil {
		panic("netsim: Connect on a partitioned network")
	}
	if cfg.Bandwidth <= 0 {
		panic("netsim: link bandwidth must be positive")
	}
	if cfg.Delay < 0 {
		panic("netsim: link delay must be nonnegative")
	}
	// Generators connect a node's neighbours in ascending order, so a
	// neighbour above every one it has cannot be a duplicate, and only the
	// others pay for a lookup.
	if int32(to.ID) <= from.top && from.LinkTo(to.ID) != nil {
		panic(fmt.Sprintf("netsim: duplicate link %v->%v", from, to))
	}
	from.top = max(from.top, int32(to.ID))
	ql := cfg.QueueLimit
	if ql == 0 {
		ql = DefaultQueueLimit
	}
	l := carve(&n.linkBlk, n.numLinks, linkBlock)
	*l = Link{
		net:        n,
		to:         to,
		From:       from.ID,
		To:         to.ID,
		bandwidth:  cfg.Bandwidth,
		txTime:     sim.TransmitTime(0, cfg.Bandwidth),
		Delay:      cfg.Delay,
		QueueLimit: ql,
		Policy:     cfg.Policy,
		probed:     len(n.probes) > 0,
	}
	l.inflight.buf = l.pipe[:]
	// Single-scheduler default; Partition rebinds these per shard.
	l.sched, l.dsched, l.recvSched = n.engine, n.engine, n.engine
	n.numLinks++
	if n.pend == nil {
		n.pend = l
	} else {
		n.pendTail.nextOut = l
	}
	n.pendTail = l
	n.invalidateRoutes()
	return l
}

// seal lays the links added since the last call out in their nodes'
// out-link tables. Each node that gained links moves its table to an
// exact-length share of one new array, in the order the nodes first gained
// one, and inserts them in neighbour order. Every reader of a table
// (Node.table) calls it first, so a table is laid out once however many
// Connects built it, and never outgrows its share.
func (n *Network) seal() {
	if n.pend == nil {
		return
	}
	grow := make([]int32, len(n.nodes)) // links each node gains
	total := 0
	for l := n.pend; l != nil; l = l.nextOut {
		if grow[l.From] == 0 {
			total += len(n.nodes[l.From].links)
		}
		grow[l.From]++
		total++
	}
	tables := make([]outLink, total)
	for l := n.pend; l != nil; {
		from := n.nodes[l.From]
		if g := int(grow[l.From]); g > 0 {
			k := len(from.links)
			share := tables[: k : k+g]
			copy(share, from.links)
			from.links, tables, grow[l.From] = share, tables[k+g:], 0
		}
		from.addLink(l)
		next := l.nextOut
		l.nextOut = nil
		l = next
	}
	n.pend, n.pendTail = nil, nil
}

// invalidateRoutes drops the routing state after a topology change; the
// next NextHop rebuilds it.
func (n *Network) invalidateRoutes() {
	n.nextHop, n.tree = nil, nil
	n.epoch++
}

// Links returns every link in the network in (From, To) order, in one
// allocation.
func (n *Network) Links() []*Link {
	n.seal()
	out := make([]*Link, 0, n.numLinks)
	for _, node := range n.nodes {
		for _, ol := range node.links {
			out = append(out, ol.link)
		}
	}
	return out
}

// NextHop returns the neighbor of src on a shortest path (hop count) to dst,
// or NoNode if dst is unreachable. Routing tables are computed on first use
// after any topology change. Down links carry no routes.
func (n *Network) NextHop(src, dst NodeID) NodeID {
	n.ensureRoutes()
	if n.tree != nil {
		return n.tree.nextHop(src, dst)
	}
	return n.nextHop[src][dst]
}

// ensureRoutes materializes routing state if a topology change invalidated
// it: tree mode for symmetric forests, the dense all-pairs tables otherwise.
// On trees the two answer identically (paths are unique and both tie-break
// toward the lowest node ID), so which mode serves a query is invisible.
func (n *Network) ensureRoutes() {
	if n.nextHop != nil || n.tree != nil {
		return
	}
	n.seal()
	if !n.denseOnly {
		if n.tree = n.buildTreeRoutes(); n.tree != nil {
			return
		}
	}
	n.computeRoutes()
}

// RouteChange describes one routing-table update: the set of nodes whose
// next hop toward Dst changed when a link changed state — including nodes
// for which Dst just became reachable or unreachable. Nodes are in
// ascending ID order; a notification carries one entry per affected
// destination, also ascending.
type RouteChange struct {
	Dst   NodeID
	Nodes []NodeID
}

// OnRouteChange registers fn to observe routing-table updates caused by
// link state changes (Link.SetDown / SetUp). Listeners run synchronously,
// in registration order, on the simulation goroutine, after the tables
// already reflect the new link state. The multicast layer listens here to
// repair its distribution trees. The slice passed to fn is only valid for
// the duration of the call.
func (n *Network) OnRouteChange(fn func([]RouteChange)) {
	n.routeListeners = append(n.routeListeners, fn)
}

// reverseAdjacency builds rev[to] = list of (from) with a live link
// from->to, in node order so BFS tie-breaks stay deterministic.
func (n *Network) reverseAdjacency() [][]NodeID {
	n.seal()
	rev := make([][]NodeID, len(n.nodes))
	for _, node := range n.nodes {
		for _, ol := range node.links {
			if ol.link.down {
				continue
			}
			rev[ol.to] = append(rev[ol.to], node.ID)
		}
	}
	return rev
}

// computeColumn fills col (one entry per node) with each node's next hop
// toward dst: one BFS from dst along reversed links, so paths follow link
// direction. The first hop discovered from a node toward dst is recorded;
// rev lists are in node order, so ties break deterministically by node ID.
// queue is BFS scratch with room for every node, lent by the caller so a
// whole table build reuses one work list.
func (n *Network) computeColumn(dst NodeID, rev [][]NodeID, col, queue []NodeID) {
	for i := range col {
		col[i] = NoNode
	}
	// A node is discovered exactly when its column entry is set, so col
	// doubles as the visited set.
	col[dst] = dst
	queue = append(queue[:0], dst)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, prev := range rev[cur] {
			if col[prev] == NoNode {
				// prev's shortest path runs prev -> cur -> ... -> dst.
				col[prev] = cur
				queue = append(queue, prev)
			}
		}
	}
}

// computeRoutes builds all-pairs next-hop tables, one BFS per destination.
func (n *Network) computeRoutes() {
	num := len(n.nodes)
	n.nextHop = make([][]NodeID, num)
	rev := n.reverseAdjacency()
	for dst := 0; dst < num; dst++ {
		n.nextHop[dst] = make([]NodeID, num)
	}
	col, queue := make([]NodeID, num), make([]NodeID, 0, num)
	for dst := 0; dst < num; dst++ {
		n.computeColumn(NodeID(dst), rev, col, queue)
		for src := 0; src < num; src++ {
			n.nextHop[src][dst] = col[src]
		}
	}
}

// linkStateChanged incrementally recomputes routing after l flipped state
// and notifies route listeners of every next-hop change. Only the affected
// destination columns are rebuilt: when a link goes down, just the
// destinations whose shortest-path tree crossed it (the tree uses edge
// From->To exactly when From's next hop is To); when a link comes up any
// path may improve, so every column is rechecked. The caller (SetDown /
// SetUp) guarantees the tables were materialized before the flip. The route
// epoch moves first, so no node's next-hop memo outlives the old tables.
func (n *Network) linkStateChanged(l *Link, wentDown bool) {
	n.epoch++
	num := len(n.nodes)
	rev := n.reverseAdjacency()
	col, queue := make([]NodeID, num), make([]NodeID, 0, num)
	var changes []RouteChange
	for dst := 0; dst < num; dst++ {
		if wentDown && n.nextHop[l.From][dst] != l.To {
			continue // this destination's tree never crossed the link
		}
		n.computeColumn(NodeID(dst), rev, col, queue)
		var changed []NodeID
		for src := 0; src < num; src++ {
			if n.nextHop[src][dst] != col[src] {
				n.nextHop[src][dst] = col[src]
				changed = append(changed, NodeID(src))
			}
		}
		if len(changed) > 0 {
			changes = append(changes, RouteChange{Dst: NodeID(dst), Nodes: changed})
		}
	}
	if len(changes) == 0 {
		return
	}
	for _, fn := range n.routeListeners {
		fn(changes)
	}
}

// PathDelay returns the sum of propagation delays along the unicast route
// from src to dst, or -1 if unreachable. Useful for sanity checks ("max path
// latency 600 ms" in the paper's Topology A).
func (n *Network) PathDelay(src, dst NodeID) sim.Time {
	if src == dst {
		return 0
	}
	var total sim.Time
	cur := src
	for cur != dst {
		next := n.NextHop(cur, dst)
		if next == NoNode {
			return -1
		}
		total += n.nodes[cur].LinkTo(next).Delay
		cur = next
	}
	return total
}

// PathHops returns the hop count from src to dst, or -1 if unreachable.
func (n *Network) PathHops(src, dst NodeID) int {
	if src == dst {
		return 0
	}
	hops := 0
	cur := src
	for cur != dst {
		next := n.NextHop(cur, dst)
		if next == NoNode {
			return -1
		}
		hops++
		cur = next
		if hops > len(n.nodes) {
			return -1 // routing loop guard; cannot happen with BFS tables
		}
	}
	return hops
}
