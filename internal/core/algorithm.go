package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"toposense/internal/sim"
)

// nodeState carries what the decision table needs across intervals. The
// zero value is a node seen for the first time (or forgotten).
type nodeState struct {
	node        NodeID // owner, for the slot index when the entry moves
	hist        uint8  // 3-bit congestion history; bit 0 = newest interval
	bwPrev      int64  // bytes received in the most recent completed interval
	bwPrev2     int64  // bytes received in the interval before that
	supplyPrev  int    // level allocated last interval ("supply in Tn-T2n")
	supplyPrev2 int    // level allocated the interval before ("supply in T0-Tn")
	lastSeen    sim.Time
	// lastReduce is when the node's supply last went down; reductions are
	// suppressed for a cool-down after it (see coolingDown).
	lastReduce sim.Time
	// backoffs heads the node's chain of armed timers in Algorithm.backoffs
	// (index + 1; 0 = none).
	backoffs int32
}

// sessionState is one session's node state: a compact table and a slot
// index by NodeID (entry index + 1; 0 = no state), both grown on demand.
type sessionState struct {
	id    int
	slot  []int32
	nodes []nodeState
}

// reserve sizes the slot index and the table for a tree of ids, so that a
// first sight grows each at most once.
func (s *sessionState) reserve(ids []NodeID, maxID NodeID) {
	s.slot = growTo(s.slot, int(maxID)+1)
	fresh := 0
	for _, id := range ids {
		if s.slot[id] == 0 {
			fresh++
		}
	}
	s.nodes = slices.Grow(s.nodes, fresh)
}

// stateOf returns the index of id's state, creating it at first sight.
func (s *sessionState) stateOf(id NodeID) int32 {
	if s.slot[id] == 0 {
		s.nodes = append(s.nodes, nodeState{node: id})
		s.slot[id] = int32(len(s.nodes))
	}
	return s.slot[id] - 1
}

// drop removes entry i, moving the last entry into its place.
func (s *sessionState) drop(i int) {
	s.slot[s.nodes[i].node] = 0
	last := len(s.nodes) - 1
	if i != last {
		s.nodes[i] = s.nodes[last]
		s.slot[s.nodes[i].node] = int32(i) + 1
	}
	s.nodes = s.nodes[:last]
}

// backoff is one armed timer: layer must not be re-added within the subtree
// rooted at the node whose chain holds it until the deadline passes.
type backoff struct {
	layer int
	until sim.Time
	next  int32 // the node's next timer, index + 1; 0 ends the chain
}

// linkState is the persistent capacity estimate for one physical edge,
// keyed by (parent, child): links into the same child are chained from
// Algorithm.linkOf.
type linkState struct {
	from, to NodeID
	next     int32   // next link into the same child, index + 1; 0 ends the chain
	capacity float64 // bits/s; +Inf means "not yet estimated"
	lastSeen sim.Time
	// resetAt is when this estimate returns to infinity. Per-link jittered
	// deadlines keep independent subtrees from probing (and crashing) in
	// lockstep after a synchronized global reset.
	resetAt sim.Time
	// observed holds the last few intervals' measured throughput. Pinning
	// uses the max of this window: the interval that finally satisfies the
	// loss conditions is often the post-drop drain (reports lag actions by
	// the feedback latency), whose byte counts badly under-estimate the
	// link. The congested interval just before it carried the true
	// capacity.
	observed [3]float64
	obsIdx   int
	// row is the link's row in the edge table of the step numbered epoch.
	epoch uint64
	row   int32
}

func (ls *linkState) recordObserved(v float64) {
	ls.observed[ls.obsIdx] = v
	ls.obsIdx = (ls.obsIdx + 1) % len(ls.observed)
}

func (ls *linkState) maxObserved() float64 {
	max := 0.0
	for _, v := range ls.observed {
		if v > max {
			max = v
		}
	}
	return max
}

// Algorithm is the TopoSense decision engine. Create one per controller
// with New and call Step once per decision interval. It is not safe for
// concurrent use.
type Algorithm struct {
	cfg Config
	rng *rand.Rand

	// Persistent state lives in slices reached through indexes by NodeID,
	// grown on demand: each session's node table, the link estimates
	// (linkOf[child] heads the chain of links into child, index + 1), and a
	// pool of back-off timers chained off their nodes, with its free list.
	sessions     []*sessionState
	links        []linkState
	linkOf       []int32
	backoffs     []backoff
	freeBackoff  int32
	liveBackoffs int

	// scratch is the per-step working arena: every slice in it is reset —
	// never reallocated — at the start of each Step, so steady-state
	// intervals run without allocating.
	scratch stepScratch

	steps   int64
	explain *explainState // non-nil once EnableExplain is called
}

// New creates an algorithm instance. The rng drives back-off randomization;
// pass a seeded source for reproducible runs.
func New(cfg Config, rng *rand.Rand) *Algorithm {
	cfg.Normalize()
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &Algorithm{cfg: cfg, rng: rng}
}

// Config returns the algorithm's configuration.
func (a *Algorithm) Config() Config { return a.cfg }

// Steps returns how many intervals have been processed.
func (a *Algorithm) Steps() int64 { return a.steps }

// sessionPass holds one session's per-step working state, flattened onto
// dense local indices: node i is the topology's position i, so a parent's
// index is always smaller than its children's. The localized tree is the
// topology's own arrays, read in place; every per-node column is a plain
// slice owned by the Algorithm's scratch arena, which bind rebuilds in
// place each Step.
type sessionPass struct {
	topo *Topology
	sess *sessionState

	// Localized tree: the topology's arrays, and an index bind rebuilds.
	nodes    []NodeID // local index -> NodeID, BFS order
	index    []int32  // NodeID -> local index + 1; bind clears the previous tree's entries
	maxID    NodeID   // largest NodeID in the tree
	parent   []int32  // local parent index; -1 at the root
	kidStart []int32  // children of i are kidStart[i] up to kidStart[i+1]
	recv     []bool   // node has an attached receiver
	state    []int32  // index of the node's entry in sess.nodes
	edge     []int32  // row of the edge from the node's parent in the step's edge table (not at the root)

	// Per-node columns, indexed by local index.
	report    []*ReceiverState
	loss      []float64  // min-over-children loss (stage 1)
	congest   []bool     // congestion state (stage 1)
	subBytes  []int64    // max bytes by any receiver in the subtree
	recvCount []int      // receivers in the subtree rooted at the node
	level     []int      // current subscription (leaf: report; internal: max of children)
	bneck     []float64  // bottleneck bandwidth root->node (stage 3)
	maxBW     []float64  // max bottleneck over children (stage 3)
	demand    []int      // stage 5 demand
	supply    []int      // stage 5 allocation
	avail     []float64  // stage 4 scratch: bandwidth if other sessions sit at base
	possible  []int      // stage 4 scratch: max possible demand in layers
	share     []float64  // stage 4: fair share of the edge from the parent; +Inf if none
	decisions []Decision // explain records, nil unless enabled
}

// children returns the local index range [lo, hi) of node i's children.
func (p *sessionPass) children(i int32) (lo, hi int32) {
	return p.kidStart[i], p.kidStart[i+1]
}

// isLeaf reports whether local node i has no children in this topology.
func (p *sessionPass) isLeaf(i int32) bool { return p.kidStart[i] == p.kidStart[i+1] }

// local returns node n's local index, or -1 when n is not in the tree.
func (p *sessionPass) local(n NodeID) int32 {
	if n < 0 || int(n) >= len(p.index) {
		return -1
	}
	return p.index[n] - 1
}

// bind points the pass at a topology, indexes its node IDs and resets the
// per-node columns in place, creating session state for nodes seen for the
// first time. The tree itself is the topology's arrays, taken as they are.
// Every slice is sized once from the tree, so a first sight allocates per
// column, not per node, and a tree no larger than one seen before
// allocates nothing.
func (p *sessionPass) bind(topo *Topology, sess *sessionState) {
	p.topo, p.sess = topo, sess
	for _, n := range p.nodes {
		p.index[n] = 0
	}
	p.nodes, p.parent, p.kidStart, p.recv = topo.Node, topo.Parent, topo.KidStart, topo.Receiver
	p.maxID = slices.Max(p.nodes)

	n := len(p.nodes)
	p.index = growTo(p.index, int(p.maxID)+1)
	p.state = resetSlice(p.state, n)
	sess.reserve(p.nodes, p.maxID)
	for i, id := range p.nodes {
		p.index[id] = int32(i) + 1
		p.state[i] = sess.stateOf(id)
	}
	p.edge = resetSlice(p.edge, n)
	p.report = resetSlice(p.report, n)
	p.loss = resetSlice(p.loss, n)
	p.congest = resetSlice(p.congest, n)
	p.subBytes = resetSlice(p.subBytes, n)
	p.recvCount = resetSlice(p.recvCount, n)
	p.level = resetSlice(p.level, n)
	p.bneck = resetSlice(p.bneck, n)
	p.maxBW = resetSlice(p.maxBW, n)
	p.demand = resetSlice(p.demand, n)
	p.supply = resetSlice(p.supply, n)
	p.avail = resetSlice(p.avail, n)
	p.possible = resetSlice(p.possible, n)
	p.share = resetSlice(p.share, n)
}

// resetSlice returns s with length n and every element zeroed, reusing the
// backing array whenever it is large enough.
func resetSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// growTo returns s extended with zeros to at least length n.
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// edgeRow is one distinct edge of the step's session trees: the table
// stages 2 and 4 share. Each session crossing the edge folds its
// observation of it into the row, in pass order.
type edgeRow struct {
	link      int32   // index into Algorithm.links
	users     int     // sessions crossing the edge
	receivers int     // receivers behind it, over all sessions (stage 2)
	congested bool    // some session's child node is CONGESTED (stage 2)
	quiet     bool    // some session's loss there is at most p_threshold (stage 2)
	bits      float64 // observed bits, summed over sessions (stage 2)
	weighted  float64 // loss weighted by observed bytes (stage 2)
	volume    float64 // observed bytes (stage 2)
	weights   float64 // sum of the sessions' fair-share weights (stage 4)
}

// stepScratch is the reusable working set of one Step: session passes, the
// edge table, the suggestion output buffer and the typed sorters (sorting
// through pre-bound sort.Interface values avoids the per-call closure and
// header allocations of sort.Slice).
type stepScratch struct {
	passes   []sessionPass
	passPtrs []*sessionPass
	out      []Suggestion

	edges []edgeRow
	epoch uint64 // numbers the edge table; see linkState.row
	pins  []int32

	sugSorter suggestionSorter
	pinSorter pinSorter
}

type suggestionSorter struct{ s []Suggestion }

func (x *suggestionSorter) Len() int      { return len(x.s) }
func (x *suggestionSorter) Swap(i, j int) { x.s[i], x.s[j] = x.s[j], x.s[i] }
func (x *suggestionSorter) Less(i, j int) bool {
	if x.s[i].Session != x.s[j].Session {
		return x.s[i].Session < x.s[j].Session
	}
	return x.s[i].Node < x.s[j].Node
}

// pinSorter orders links by (From, To).
type pinSorter struct {
	links []linkState
	s     []int32
}

func (x *pinSorter) Len() int      { return len(x.s) }
func (x *pinSorter) Swap(i, j int) { x.s[i], x.s[j] = x.s[j], x.s[i] }
func (x *pinSorter) Less(i, j int) bool {
	a, b := &x.links[x.s[i]], &x.links[x.s[j]]
	if a.from != b.from {
		return a.from < b.from
	}
	return a.to < b.to
}

// Step runs one full decision interval over every session and returns the
// per-receiver subscription suggestions, sorted by (session, node). The
// returned slice is backed by the algorithm's scratch arena and is only
// valid until the next Step call; callers that need to keep it must copy.
// Node IDs must be non-negative (Topology.Validate checks) and unique.
func (a *Algorithm) Step(in Input) []Suggestion {
	a.steps++
	a.resetExplain()

	s := &a.scratch
	// Bind per-session passes in the scratch arena; skip sessions with no
	// usable topology. Grow the arena first so the pass pointers stay valid.
	for len(s.passes) < len(in.Topologies) {
		s.passes = append(s.passes, sessionPass{})
	}
	s.passPtrs = s.passPtrs[:0]
	nodes := 0
	for _, topo := range in.Topologies {
		if topo == nil || len(topo.Node) == 0 {
			continue
		}
		p := &s.passes[len(s.passPtrs)]
		p.bind(topo, a.session(topo.Session))
		if a.explain != nil {
			p.decisions = resetSlice(p.decisions, len(p.nodes))
		} else {
			p.decisions = nil
		}
		s.passPtrs = append(s.passPtrs, p)
		nodes += len(p.nodes)
	}
	passes := s.passPtrs
	a.bindEdges(in.Now, passes)
	for i := range in.Reports {
		r := &in.Reports[i]
		for _, p := range passes {
			if p.topo.Session == r.Session {
				if li := p.local(r.Node); li >= 0 {
					p.report[li] = r
				}
			}
		}
	}

	// Stage 1: congestion states per session.
	for _, p := range passes {
		a.computeCongestion(p)
	}
	// Stage 2: link capacity estimation on the union of edges.
	a.estimateCapacities(in.Now, passes)
	// Stage 3: bottleneck bandwidths per session.
	for _, p := range passes {
		a.computeBottlenecks(p)
	}
	// Stage 4: inter-session bandwidth sharing on shared links.
	a.shareBandwidth(passes)
	// Stage 5: demand computation + supply allocation.
	out := slices.Grow(s.out[:0], nodes)
	for _, p := range passes {
		a.computeDemand(in.Now, p)
		a.allocateSupply(p)
		for i := range p.nodes {
			if p.recv[i] {
				out = append(out, Suggestion{Node: p.nodes[i], Session: p.topo.Session, Level: p.supply[i]})
			}
			if p.decisions != nil {
				p.decisions[i].Supply = p.supply[i]
				a.record(p.decisions[i])
			}
		}
	}
	s.out = out
	s.sugSorter.s = out
	sort.Sort(&s.sugSorter)

	// Roll per-node state forward and garbage-collect.
	a.rollState(in.Now, passes)
	return out
}

// NodeIDNone mirrors netsim.NoNode without re-importing it everywhere.
const NodeIDNone = NodeID(-1)

// session returns the state of session id, creating it at first sight.
func (a *Algorithm) session(id int) *sessionState {
	for _, s := range a.sessions {
		if s.id == id {
			return s
		}
	}
	s := &sessionState{id: id}
	a.sessions = append(a.sessions, s)
	return s
}

// bindEdges builds the step's edge table: one row per distinct edge of the
// passes' trees, and each non-root node's edge column pointing at its row.
// Links are keyed by (parent, child), never by child alone: in Topology B
// the backbone's first node hangs off a different source in every session,
// and those are different links. A link first seen is created here, at
// infinity.
func (a *Algorithm) bindEdges(now sim.Time, passes []*sessionPass) {
	s := &a.scratch
	s.epoch++
	maxID, edges, fresh := NodeID(0), 0, 0
	for _, p := range passes {
		maxID = max(maxID, p.maxID)
		edges += len(p.nodes) - 1
	}
	a.linkOf = growTo(a.linkOf, int(maxID)+1)
	for _, p := range passes {
		for i := 1; i < len(p.nodes); i++ {
			if p.edge[i] = a.link(p.nodes[p.parent[i]], p.nodes[i]); p.edge[i] < 0 {
				fresh++
			}
		}
	}
	a.links = slices.Grow(a.links, fresh)
	s.edges = slices.Grow(s.edges[:0], edges)
	for _, p := range passes {
		for i := 1; i < len(p.nodes); i++ {
			li := p.edge[i]
			if li < 0 { // first sight, unless an earlier pass just created it
				from, to := p.nodes[p.parent[i]], p.nodes[i]
				if li = a.link(from, to); li < 0 {
					li = a.addLink(from, to)
				}
			}
			ls := &a.links[li]
			ls.lastSeen = now
			if ls.epoch != s.epoch {
				ls.epoch, ls.row = s.epoch, int32(len(s.edges))
				s.edges = append(s.edges, edgeRow{link: li})
			}
			s.edges[ls.row].users++
			p.edge[i] = ls.row
		}
	}
}

// edgeLink returns the link from local node i's parent to i.
func (a *Algorithm) edgeLink(p *sessionPass, i int) *linkState {
	return &a.links[a.scratch.edges[p.edge[i]].link]
}

// link returns the index of the link from -> to, or -1.
func (a *Algorithm) link(from, to NodeID) int32 {
	if to < 0 || int(to) >= len(a.linkOf) {
		return -1
	}
	for k := a.linkOf[to]; k != 0; k = a.links[k-1].next {
		if a.links[k-1].from == from {
			return k - 1
		}
	}
	return -1
}

// addLink creates the estimate of a link seen for the first time.
func (a *Algorithm) addLink(from, to NodeID) int32 {
	a.links = append(a.links, linkState{from: from, to: to, next: a.linkOf[to], capacity: math.Inf(1)})
	a.linkOf[to] = int32(len(a.links))
	return int32(len(a.links)) - 1
}

// linkRef returns the chain word that points at link k.
func (a *Algorithm) linkRef(k int) *int32 {
	ref := &a.linkOf[a.links[k].to]
	for int(*ref) != k+1 {
		ref = &a.links[*ref-1].next
	}
	return ref
}

// dropLink unchains link k and moves the last link into its place.
func (a *Algorithm) dropLink(k int) {
	*a.linkRef(k) = a.links[k].next
	last := len(a.links) - 1
	if k != last {
		*a.linkRef(last) = int32(k) + 1
		a.links[k] = a.links[last]
	}
	a.links = a.links[:last]
}

// rollState pushes this interval's observations into the persistent
// per-node state, expires back-off timers, and drops node and link state
// unseen for 10 intervals. A node whose timers outlive its state keeps a
// zeroed entry — equivalent to none — until they expire.
func (a *Algorithm) rollState(now sim.Time, passes []*sessionPass) {
	for _, p := range passes {
		for i, si := range p.state {
			st := &p.sess.nodes[si]
			bit := uint8(0)
			if p.congest[i] {
				bit = 1
			}
			st.hist = ((st.hist << 1) | bit) & 7
			st.bwPrev2 = st.bwPrev
			st.bwPrev = p.subBytes[i]
			// Record only genuine cuts — allocations that force current
			// subscribers down — not the natural end of an upward probe
			// (supply shrinking back toward the actual level).
			if p.supply[i] < st.supplyPrev && p.supply[i] < p.level[i] {
				st.lastReduce = now
			}
			st.supplyPrev2 = st.supplyPrev
			st.supplyPrev = p.supply[i]
			st.lastSeen = now
		}
	}
	horizon := now - 10*a.cfg.Interval
	for _, sess := range a.sessions {
		for i := 0; i < len(sess.nodes); {
			st := &sess.nodes[i]
			a.expireBackoffs(now, st)
			switch {
			case st.lastSeen >= horizon:
				i++
			case st.backoffs != 0:
				*st = nodeState{node: st.node, backoffs: st.backoffs}
				i++
			default:
				sess.drop(i)
			}
		}
	}
	for k := 0; k < len(a.links); {
		if a.links[k].lastSeen < horizon {
			a.dropLink(k)
		} else {
			k++
		}
	}
}

// expireBackoffs returns st's timers that are due to the pool's free list.
func (a *Algorithm) expireBackoffs(now sim.Time, st *nodeState) {
	for ref := &st.backoffs; *ref != 0; {
		k := *ref
		b := &a.backoffs[k-1]
		if b.until > now {
			ref = &b.next
			continue
		}
		*ref = b.next
		b.next = a.freeBackoff
		a.freeBackoff = k
		a.liveBackoffs--
	}
}

// backingOff reports whether adding `layer` at local node i (or within the
// subtree of any of its ancestors, where subtree-level back-offs live) is
// currently barred.
func (a *Algorithm) backingOff(now sim.Time, p *sessionPass, i int32, layer int) bool {
	for j := i; j >= 0; j = p.parent[j] {
		for k := p.sess.nodes[p.state[j]].backoffs; k != 0; k = a.backoffs[k-1].next {
			if b := &a.backoffs[k-1]; b.layer == layer && b.until > now {
				return true
			}
		}
	}
	return false
}

// setBackoff arms a random back-off for the given dropped layer at a node,
// replacing a timer already armed for that layer there.
func (a *Algorithm) setBackoff(now sim.Time, st *nodeState, layer int) {
	if layer < 1 || a.cfg.DisableBackoff {
		return
	}
	span := int64(a.cfg.BackoffMax - a.cfg.BackoffMin)
	var jitter sim.Time
	if span > 0 {
		jitter = sim.Time(a.rng.Int63n(span + 1))
	}
	until := now + a.cfg.BackoffMin + jitter
	for k := st.backoffs; k != 0; k = a.backoffs[k-1].next {
		if a.backoffs[k-1].layer == layer {
			a.backoffs[k-1].until = until
			return
		}
	}
	k := a.freeBackoff
	if k != 0 {
		a.freeBackoff = a.backoffs[k-1].next
	} else {
		a.backoffs = append(a.backoffs, backoff{})
		k = int32(len(a.backoffs))
	}
	a.backoffs[k-1] = backoff{layer: layer, until: until, next: st.backoffs}
	st.backoffs = k
	a.liveBackoffs++
}

// Backoffs returns the number of live back-off timers (for tests/metrics).
func (a *Algorithm) Backoffs() int { return a.liveBackoffs }

// CapacityEstimate returns the current estimate for an edge in bits/s and
// whether one exists ( finite ).
func (a *Algorithm) CapacityEstimate(e Edge) (float64, bool) {
	k := a.link(e.From, e.To)
	if k < 0 || math.IsInf(a.links[k].capacity, 1) {
		return math.Inf(1), false
	}
	return a.links[k].capacity, true
}
