package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"toposense/internal/sim"
)

// refAlgorithm is TopoSense's persistent state as it was before the dense
// tables: per-(session, node) state, link estimates and back-off timers in
// maps, the per-pass index a map, and stages 2 and 4 each hashing and
// sorting the union of edges. It is kept as the oracle Algorithm is
// differentially tested against (TestAlgorithmStateMatchesReference and
// FuzzAlgorithmState below). Stage 1 and the
// Table-I lookups read no persistent state and are shared through shim.
type refAlgorithm struct {
	cfg  Config
	rng  *rand.Rand
	shim *Algorithm

	nodes    map[refNodeKey]*refNodeState
	links    map[Edge]*refLinkState
	backoffs map[refBackoffKey]sim.Time

	explain   bool
	decisions []Decision
}

type refNodeKey struct {
	session int
	node    NodeID
}

type refNodeState struct {
	hist        uint8
	bwPrev      int64
	bwPrev2     int64
	supplyPrev  int
	supplyPrev2 int
	lastSeen    sim.Time
	lastReduce  sim.Time
}

type refBackoffKey struct {
	session int
	node    NodeID
	layer   int
}

type refLinkState struct {
	capacity float64
	lastSeen sim.Time
	resetAt  sim.Time
	observed [3]float64
	obsIdx   int
}

type refShareKey struct {
	edge    Edge
	session int
}

func (ls *refLinkState) recordObserved(v float64) {
	ls.observed[ls.obsIdx] = v
	ls.obsIdx = (ls.obsIdx + 1) % len(ls.observed)
}

func (ls *refLinkState) maxObserved() float64 {
	max := 0.0
	for _, v := range ls.observed {
		if v > max {
			max = v
		}
	}
	return max
}

func newRefAlgorithm(cfg Config, rng *rand.Rand) *refAlgorithm {
	cfg.Normalize()
	return &refAlgorithm{
		cfg:      cfg,
		rng:      rng,
		shim:     New(cfg, nil),
		nodes:    make(map[refNodeKey]*refNodeState),
		links:    make(map[Edge]*refLinkState),
		backoffs: make(map[refBackoffKey]sim.Time),
	}
}

// refPass is one session's pass: the localized tree and per-node columns of
// a sessionPass (only the fields the old code had are used) plus the map
// index, the parent map, the child lists and one heap-allocated decision
// per node.
type refPass struct {
	sessionPass
	index     map[NodeID]int32
	up        map[NodeID]NodeID
	kids      []int32 // children of i are kids[kidOff[i]:kidOff[i+1]]
	kidOff    []int32
	decisions []*Decision
}

// kidList returns the local indices of node i's children.
func (p *refPass) kidList(i int32) []int32 { return p.kids[p.kidOff[i]:p.kidOff[i+1]] }

// bind reads the topology back into the maps the old code walked and
// localizes it the old way.
func (r *refAlgorithm) bind(topo *Topology) *refPass {
	p := &refPass{index: make(map[NodeID]int32), up: make(map[NodeID]NodeID)}
	p.topo = topo
	children := map[NodeID][]NodeID{}
	receivers := map[NodeID]bool{}
	for i, id := range topo.Node {
		if i > 0 {
			par := topo.Node[topo.Parent[i]]
			p.up[id] = par
			children[par] = append(children[par], id)
		}
		receivers[id] = topo.Receiver[i]
	}
	root := topo.Node[0]
	p.nodes = append(p.nodes, root)
	p.index[root] = 0
	p.parent = append(p.parent, -1)
	p.recv = append(p.recv, receivers[root])
	for i := 0; i < len(p.nodes); i++ {
		p.kidOff = append(p.kidOff, int32(len(p.kids)))
		p.kidStart = append(p.kidStart, int32(len(p.nodes)))
		for _, c := range children[p.nodes[i]] {
			ci := int32(len(p.nodes))
			p.index[c] = ci
			p.nodes = append(p.nodes, c)
			p.parent = append(p.parent, int32(i))
			p.recv = append(p.recv, receivers[c])
			p.kids = append(p.kids, ci)
		}
	}
	p.kidOff = append(p.kidOff, int32(len(p.kids)))
	p.kidStart = append(p.kidStart, int32(len(p.nodes)))
	n := len(p.nodes)
	p.report = make([]*ReceiverState, n)
	p.loss = make([]float64, n)
	p.congest = make([]bool, n)
	p.subBytes = make([]int64, n)
	p.recvCount = make([]int, n)
	p.level = make([]int, n)
	p.bneck = make([]float64, n)
	p.maxBW = make([]float64, n)
	p.demand = make([]int, n)
	p.supply = make([]int, n)
	p.avail = make([]float64, n)
	p.possible = make([]int, n)
	if r.explain {
		p.decisions = make([]*Decision, n)
	}
	return p
}

// Step is the old Algorithm.Step.
func (r *refAlgorithm) Step(in Input) []Suggestion {
	r.decisions = r.decisions[:0]
	var passes []*refPass
	for _, topo := range in.Topologies {
		if topo == nil || len(topo.Node) == 0 {
			continue
		}
		passes = append(passes, r.bind(topo))
	}
	for i := range in.Reports {
		rep := &in.Reports[i]
		for _, p := range passes {
			if p.topo.Session == rep.Session {
				if li, ok := p.index[rep.Node]; ok {
					p.report[li] = rep
				}
			}
		}
	}
	for _, p := range passes {
		r.shim.computeCongestion(&p.sessionPass)
	}
	r.estimateCapacities(in.Now, passes)
	for _, p := range passes {
		r.computeBottlenecks(p)
	}
	shares := r.shareBandwidth(passes)
	var out []Suggestion
	for _, p := range passes {
		r.computeDemand(in.Now, p)
		r.allocateSupply(p, shares)
		for i := range p.nodes {
			if p.recv[i] {
				out = append(out, Suggestion{Node: p.nodes[i], Session: p.topo.Session, Level: p.supply[i]})
			}
			if p.decisions != nil {
				if d := p.decisions[i]; d != nil {
					d.Supply = p.supply[i]
					r.decisions = append(r.decisions, *d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Session != out[j].Session {
			return out[i].Session < out[j].Session
		}
		return out[i].Node < out[j].Node
	})
	r.rollState(in.Now, passes)
	for k, until := range r.backoffs {
		if until <= in.Now {
			delete(r.backoffs, k)
		}
	}
	return out
}

func (r *refAlgorithm) LastDecisions() []Decision {
	if !r.explain {
		return nil
	}
	return append([]Decision(nil), r.decisions...)
}

func (r *refAlgorithm) Backoffs() int { return len(r.backoffs) }

func (r *refAlgorithm) CapacityEstimate(e Edge) (float64, bool) {
	ls, ok := r.links[e]
	if !ok || math.IsInf(ls.capacity, 1) {
		return math.Inf(1), false
	}
	return ls.capacity, true
}

func (r *refAlgorithm) rollState(now sim.Time, passes []*refPass) {
	for _, p := range passes {
		for i, n := range p.nodes {
			k := refNodeKey{p.topo.Session, n}
			st, ok := r.nodes[k]
			if !ok {
				st = &refNodeState{}
				r.nodes[k] = st
			}
			bit := uint8(0)
			if p.congest[i] {
				bit = 1
			}
			st.hist = ((st.hist << 1) | bit) & 7
			st.bwPrev2 = st.bwPrev
			st.bwPrev = p.subBytes[i]
			if p.supply[i] < st.supplyPrev && p.supply[i] < p.level[i] {
				st.lastReduce = now
			}
			st.supplyPrev2 = st.supplyPrev
			st.supplyPrev = p.supply[i]
			st.lastSeen = now
		}
	}
	horizon := now - 10*r.cfg.Interval
	for k, st := range r.nodes {
		if st.lastSeen < horizon {
			delete(r.nodes, k)
		}
	}
	for e, ls := range r.links {
		if ls.lastSeen < horizon {
			delete(r.links, e)
		}
	}
}

type refObs struct {
	losses    []float64
	bytes     []int64
	receivers int
	congested bool
}

func (r *refAlgorithm) estimateCapacities(now sim.Time, passes []*refPass) {
	for _, ls := range r.links {
		if !math.IsInf(ls.capacity, 1) && now >= ls.resetAt {
			ls.capacity = math.Inf(1)
		}
	}
	obs := make(map[Edge]*refObs)
	var edges []Edge
	for _, p := range passes {
		for i := 1; i < len(p.nodes); i++ {
			e := Edge{From: p.nodes[p.parent[i]], To: p.nodes[i]}
			o := obs[e]
			if o == nil {
				o = &refObs{}
				obs[e] = o
				edges = append(edges, e)
			}
			o.losses = append(o.losses, p.loss[i])
			o.bytes = append(o.bytes, p.subBytes[i])
			o.receivers += p.recvCount[i]
			if p.congest[i] {
				o.congested = true
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	interval := r.cfg.Interval.Seconds()
	for _, e := range edges {
		o := obs[e]
		ls := r.links[e]
		if ls == nil {
			ls = &refLinkState{capacity: math.Inf(1)}
			r.links[e] = ls
		}
		ls.lastSeen = now
		var bits float64
		for _, b := range o.bytes {
			bits += float64(b) * 8
		}
		ls.recordObserved(bits / interval)
		if !math.IsInf(ls.capacity, 1) {
			ls.capacity *= 1 + r.cfg.CapacityGrowth
			continue
		}
		if !r.cfg.PinSingleObserver && len(o.losses) < 2 && (o.receivers < 2 || !o.congested) {
			continue
		}
		all := true
		var weighted, volume float64
		for i, l := range o.losses {
			if l <= r.cfg.PThreshold {
				all = false
			}
			w := float64(o.bytes[i])
			weighted += l * w
			volume += w
		}
		if !all || volume == 0 {
			continue
		}
		if weighted/volume <= r.cfg.PThreshold {
			continue
		}
		observed := ls.maxObserved()
		if observed <= 0 {
			continue
		}
		ls.capacity = observed
		jitter := sim.Time(r.rng.Int63n(int64(r.cfg.CapacityResetPeriod)/2 + 1))
		ls.resetAt = now + r.cfg.CapacityResetPeriod + jitter
	}
}

func (r *refAlgorithm) computeBottlenecks(p *refPass) {
	for i := range p.nodes {
		par := p.parent[i]
		if par < 0 {
			p.bneck[i] = math.Inf(1)
			continue
		}
		cap := math.Inf(1)
		if ls := r.links[Edge{From: p.nodes[par], To: p.nodes[i]}]; ls != nil {
			cap = ls.capacity
		}
		p.bneck[i] = math.Min(p.bneck[par], cap)
	}
	for i := int32(len(p.nodes)) - 1; i >= 0; i-- {
		kids := p.kidList(i)
		if len(kids) == 0 {
			p.maxBW[i] = p.bneck[i]
			continue
		}
		max := 0.0
		for _, c := range kids {
			if p.maxBW[c] > max {
				max = p.maxBW[c]
			}
		}
		if p.recv[i] && p.bneck[i] > max {
			max = p.bneck[i]
		}
		p.maxBW[i] = max
	}
}

func (r *refAlgorithm) shareBandwidth(passes []*refPass) map[refShareKey]float64 {
	type use struct{ sessions, children []int32 }
	uses := make(map[Edge]*use)
	var edges []Edge
	for pi, p := range passes {
		for i := 1; i < len(p.nodes); i++ {
			e := Edge{From: p.nodes[p.parent[i]], To: p.nodes[i]}
			u := uses[e]
			if u == nil {
				u = &use{}
				uses[e] = u
				edges = append(edges, e)
			}
			u.sessions = append(u.sessions, int32(pi))
			u.children = append(u.children, int32(i))
		}
	}
	base := r.cfg.LayerRates[0]
	for pi, p := range passes {
		for i := range p.nodes {
			par := p.parent[i]
			if par < 0 {
				p.avail[i] = math.Inf(1)
				continue
			}
			e := Edge{From: p.nodes[par], To: p.nodes[i]}
			bw := math.Inf(1)
			if ls := r.links[e]; ls != nil && !math.IsInf(ls.capacity, 1) {
				bw = ls.capacity
				if u, ok := uses[e]; ok {
					others := 0
					for _, si := range u.sessions {
						if int(si) != pi {
							others++
						}
					}
					bw -= float64(others) * base
				}
				if bw < base {
					bw = base
				}
			}
			p.avail[i] = math.Min(p.avail[par], bw)
		}
	}
	for _, p := range passes {
		for i := int32(len(p.nodes)) - 1; i >= 0; i-- {
			kids := p.kidList(i)
			if len(kids) == 0 {
				p.possible[i] = r.cfg.LevelFor(p.avail[i])
				continue
			}
			max := 0
			for _, c := range kids {
				if p.possible[c] > max {
					max = p.possible[c]
				}
			}
			if p.recv[i] {
				if own := r.cfg.LevelFor(p.avail[i]); own > max {
					max = own
				}
			}
			p.possible[i] = max
		}
	}
	shares := make(map[refShareKey]float64)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	for _, e := range edges {
		u := uses[e]
		if len(u.sessions) < 2 {
			continue
		}
		ls := r.links[e]
		if ls == nil || math.IsInf(ls.capacity, 1) {
			continue
		}
		var total float64
		var weights []float64
		for k, si := range u.sessions {
			x := passes[si].possible[u.children[k]]
			if x < 1 {
				x = 1
			}
			w := r.cfg.CumRate(x)
			weights = append(weights, w)
			total += w
		}
		for k, si := range u.sessions {
			share := ls.capacity * weights[k] / total
			if share < base {
				share = base
			}
			shares[refShareKey{edge: e, session: passes[si].topo.Session}] = share
		}
	}
	return shares
}

func (r *refAlgorithm) computeDemand(now sim.Time, p *refPass) {
	session := p.topo.Session
	for i := int32(len(p.nodes)) - 1; i >= 0; i-- {
		n := p.nodes[i]
		level := p.level[i]
		st := r.nodes[refNodeKey{session, n}]
		hist, rel := r.tableInputs(st, p, i)
		par := p.parent[i]
		parentCongested := par >= 0 && p.congest[par]
		leaf := p.isLeaf(i)
		var act Action
		if leaf {
			act = LeafAction(hist, rel)
			if parentCongested {
				p.demand[i] = level
			} else {
				p.demand[i] = r.leafDemand(now, p, i, level, st, act)
			}
		} else {
			agg := 0
			for _, c := range p.kidList(i) {
				if p.demand[c] > agg {
					agg = p.demand[c]
				}
			}
			if p.recv[i] && level > agg {
				agg = level
			}
			act = InternalAction(hist, rel)
			if parentCongested {
				p.demand[i] = agg
			} else {
				p.demand[i] = r.internalDemand(now, p, i, level, agg, st, act)
			}
		}
		if p.decisions != nil {
			p.decisions[i] = &Decision{
				At: now, Session: session, Node: n, Leaf: leaf,
				Congested: p.congest[i], Hist: hist, Rel: rel, Action: act,
				Deferred: parentCongested, Cooling: r.coolingDown(now, st),
				Level: level, Demand: p.demand[i],
			}
		}
	}
}

func (r *refAlgorithm) tableInputs(st *refNodeState, p *refPass, i int32) (uint8, BWRel) {
	var prevHist uint8
	var bwOld int64
	if st != nil {
		prevHist = st.hist
		bwOld = st.bwPrev
	}
	bit := uint8(0)
	if p.congest[i] {
		bit = 1
	}
	return ((prevHist << 1) | bit) & 7, CompareBW(bwOld, p.subBytes[i], r.cfg.BWEqualTol)
}

func refSupplies(st *refNodeState) (old, recent int) {
	if st == nil {
		return 0, 0
	}
	return st.supplyPrev2, st.supplyPrev
}

func (r *refAlgorithm) coolingDown(now sim.Time, st *refNodeState) bool {
	if r.cfg.DisableCooldown || st == nil || st.lastReduce == 0 {
		return false
	}
	return now-st.lastReduce < 2*r.cfg.Interval+r.cfg.Interval/2
}

func (r *refAlgorithm) leafDemand(now sim.Time, p *refPass, i int32, level int, st *refNodeState, act Action) int {
	session := p.topo.Session
	n := p.nodes[i]
	oldSupply, _ := refSupplies(st)
	if r.coolingDown(now, st) && act != ActAdd && act != ActMaintain {
		return level
	}
	switch act {
	case ActAdd:
		next := level + 1
		if next > r.cfg.MaxLevel() {
			return level
		}
		if r.backingOff(now, p, n, next) {
			return level
		}
		return next
	case ActMaintain:
		return level
	case ActDropIfHighLoss:
		if p.loss[i] <= r.cfg.HighLoss {
			return level
		}
		d := clampLevel(level-1, level)
		r.armBackoffs(now, session, n, d, level)
		return d
	case ActReduceToSupplyOld:
		return clampLevel(oldSupply, level)
	case ActHalveSupplyOld:
		d := clampLevel(r.shim.halfLevel(oldSupply), level)
		r.armBackoffs(now, session, n, d, level)
		return d
	case ActHalveSupplyOldIfVeryHigh:
		if p.loss[i] <= r.cfg.VeryHighLoss {
			return level
		}
		return clampLevel(r.shim.halfLevel(oldSupply), level)
	default:
		return level
	}
}

func (r *refAlgorithm) internalDemand(now sim.Time, p *refPass, i int32, level, agg int, st *refNodeState, act Action) int {
	session := p.topo.Session
	n := p.nodes[i]
	oldSupply, recentSupply := refSupplies(st)
	if r.coolingDown(now, st) && (act == ActHalveSupplyRecent || act == ActHalveSupplyOld) {
		return agg
	}
	switch act {
	case ActAccept:
		return agg
	case ActMaintain:
		if level > 0 && agg > level {
			return level
		}
		return agg
	case ActHalveSupplyRecent:
		d := minInt(agg, clampLevel(r.shim.halfLevel(recentSupply), agg))
		r.armBackoffs(now, session, n, d, level)
		return d
	case ActHalveSupplyOld:
		d := minInt(agg, clampLevel(r.shim.halfLevel(oldSupply), agg))
		r.armBackoffs(now, session, n, d, level)
		return d
	default:
		return agg
	}
}

func (r *refAlgorithm) armBackoffs(now sim.Time, session int, n NodeID, d, level int) {
	if d >= level || level < 1 || r.cfg.DisableBackoff {
		return
	}
	span := int64(r.cfg.BackoffMax - r.cfg.BackoffMin)
	var jitter sim.Time
	if span > 0 {
		jitter = sim.Time(r.rng.Int63n(span + 1))
	}
	r.backoffs[refBackoffKey{session, n, level}] = now + r.cfg.BackoffMin + jitter
}

func (r *refAlgorithm) backingOff(now sim.Time, p *refPass, n NodeID, layer int) bool {
	for cur := n; ; {
		if until, ok := r.backoffs[refBackoffKey{p.topo.Session, cur, layer}]; ok && until > now {
			return true
		}
		parent, ok := p.up[cur]
		if !ok {
			return false
		}
		cur = parent
	}
}

func (r *refAlgorithm) allocateSupply(p *refPass, shares map[refShareKey]float64) {
	session := p.topo.Session
	for i := range p.nodes {
		par := p.parent[i]
		if par < 0 {
			p.supply[i] = minInt(p.demand[i], r.cfg.MaxLevel())
			if p.recv[i] && p.supply[i] < 1 {
				p.supply[i] = 1
			}
			continue
		}
		e := Edge{From: p.nodes[par], To: p.nodes[i]}
		bw := math.Inf(1)
		if ls := r.links[e]; ls != nil {
			bw = ls.capacity
		}
		if share, ok := shares[refShareKey{edge: e, session: session}]; ok && share < bw {
			bw = share
		}
		allowed := r.cfg.MaxLevel()
		if !math.IsInf(bw, 1) {
			allowed = r.cfg.LevelFor(bw)
		}
		s := minInt(minInt(p.demand[i], p.supply[par]), allowed)
		if p.recv[i] && s < 1 {
			s = 1
		}
		p.supply[i] = s
	}
}

// stateScript is a byte string read as a stream of small numbers; past its
// end it reads zeros, so every byte string is a valid script.
type stateScript struct {
	b []byte
	i int
}

func (s *stateScript) next(n int) int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1]) % n
}

// runStateScript drives Algorithm and refAlgorithm through one multi-pass
// script and fails on the first difference in suggestions, decisions, live
// back-off timers, the capacity estimate of any edge ever seen, or (at the
// end) the next RNG draw. The script picks the configuration, 1–3 sessions
// with sparse IDs on a physical tree of 14 nodes whose NodeIDs are a sparse
// permutation, and whether every session is rooted at the tree's root (all
// share its edges) or, as in Topology B, at a source of its own above it.
// Each pass may re-parent a node, toggle a receiver, drop a session from the
// input, jump the clock past the state horizon, heat a subtree (correlated
// loss pins shared edges and arms back-offs) or send hostile levels; the
// receivers then take up their suggestions.
func runStateScript(t *testing.T, label string, b []byte) (st stateScriptStats) {
	sc := &stateScript{b: b}
	cfg := testConfig()
	switch sc.next(4) {
	case 1:
		cfg.DisableCooldown = true
	case 2:
		cfg.PinSingleObserver = true
	case 3:
		cfg.DisableBackoff = true
	}
	cfg.BackoffMin = sim.Time(1+sc.next(8)) * 2 * sim.Second
	cfg.BackoffMax = cfg.BackoffMin + sim.Time(sc.next(4))*12*sim.Second // past the 40 s state horizon at 3
	cfg.CapacityResetPeriod = sim.Time(2+sc.next(10)) * cfg.Interval
	seed := int64(sc.next(256))
	rngNew, rngRef := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	alg, ref := New(cfg, rngNew), newRefAlgorithm(cfg, rngRef)
	if sc.next(2) == 1 {
		alg.EnableExplain()
		ref.explain = true
		st.explained++
	}

	const physical = 14
	topoB := sc.next(3) == 0
	if topoB {
		st.topologyB++
	}
	sessions := 1 + sc.next(3)
	step := []int{7, 13, 29, 41}[sc.next(4)]
	off := sc.next(101)
	id := func(v int) NodeID { return NodeID(3*((v*step+off)%101) + 2) }
	parent := make([]int, physical)
	for v := 1; v < physical; v++ {
		parent[v] = sc.next(v)
	}
	sessID := make([]int, sessions)
	member := make([][]bool, sessions)
	level := make([][]int, sessions)
	absent := make([]bool, sessions)
	for s := range member {
		sessID[s] = 5*s + sc.next(5)
		member[s] = make([]bool, physical)
		level[s] = make([]int, physical)
		for v := 1; v < physical; v++ {
			member[s][v] = sc.next(2) == 1
			level[s][v] = 1 + sc.next(3)
		}
	}
	seen := map[Edge]bool{}
	now := sim.Time(0)
	timers := 0
	passes := 30 + sc.next(20)
	for pass := 0; pass < passes; pass++ {
		for k := sc.next(3); k > 0; k-- {
			switch v := 1 + sc.next(physical-1); sc.next(4) {
			case 0:
				parent[v] = sc.next(v)
			case 1, 2:
				s := sc.next(sessions)
				member[s][v] = !member[s][v]
			case 3:
				s := sc.next(sessions)
				absent[s] = !absent[s]
			}
		}
		now += cfg.Interval
		if sc.next(10) == 0 {
			now += sim.Time(1+sc.next(12)) * cfg.Interval
			st.jumps++
		}
		hot := make([]bool, physical)
		for k := sc.next(3); k > 0; k-- {
			hot[sc.next(physical)] = true
		}
		hostile := sc.next(16) == 0

		var topos []*Topology
		var reports []ReceiverState
		for s := 0; s < sessions; s++ {
			if absent[s] {
				if sc.next(2) == 0 {
					topos = append(topos, nil)
				}
				continue
			}
			on := make([]bool, physical)
			for v := 1; v < physical; v++ {
				if member[s][v] {
					for u := v; u != 0 && !on[u]; u = parent[u] {
						on[u] = true
					}
				}
			}
			root, up, receivers := id(0), map[NodeID]NodeID{}, map[NodeID]bool{}
			if topoB {
				root = id(physical + s)
				up[id(0)] = root
			}
			for v := 1; v < physical; v++ {
				if !on[v] {
					continue
				}
				up[id(v)] = id(parent[v])
				if !member[s][v] {
					continue
				}
				receivers[id(v)] = true
				if sc.next(6) == 0 {
					continue // silent this interval
				}
				heated := false
				for u := v; ; u = parent[u] {
					heated = heated || hot[u]
					if u == 0 {
						break
					}
				}
				loss := 0.01 * float64(sc.next(4))
				if heated {
					loss = 0.12 + 0.05*float64(sc.next(4))
				}
				lv := level[s][v]
				if hostile {
					loss, lv = float64(sc.next(11))/10, 99
				}
				rate := cfg.CumRate(lv) * (1 - loss) * (0.9 + 0.05*float64(sc.next(5)))
				reports = append(reports, ReceiverState{Node: id(v), Session: sessID[s],
					Level: lv, LossRate: loss, Bytes: int64(rate / 8 * cfg.Interval.Seconds())})
			}
			topo := NewTopology(sessID[s], root, up, receivers)
			if err := topo.Validate(); err != nil {
				t.Fatalf("%s: generated an invalid tree: %v", label, err)
			}
			for c, p := range up {
				seen[Edge{From: p, To: c}] = true
			}
			topos = append(topos, topo)
		}

		in := Input{Now: now, Topologies: topos, Reports: reports}
		want := ref.Step(in)
		got := alg.Step(in)
		where := fmt.Sprintf("%s pass %d (t=%v)", label, pass, now)
		if !reflect.DeepEqual(append([]Suggestion{}, got...), append([]Suggestion{}, want...)) {
			t.Fatalf("%s: suggestions\n got  %v\n want %v", where, got, want)
		}
		if g, w := alg.LastDecisions(), ref.LastDecisions(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: decisions\n got  %s\n want %s", where, FormatDecisions(g), FormatDecisions(w))
		}
		if g, w := alg.Backoffs(), ref.Backoffs(); g != w {
			t.Fatalf("%s: %d back-off timers, reference %d", where, g, w)
		} else if g < timers {
			st.expiries++
		}
		timers = alg.Backoffs()
		for _, sess := range alg.sessions {
			for _, n := range sess.nodes {
				if n.backoffs != 0 && n.lastSeen < now-10*cfg.Interval {
					st.outlived++ // timers kept past the node's state
				}
			}
		}
		for e := range seen {
			gc, gok := alg.CapacityEstimate(e)
			wc, wok := ref.CapacityEstimate(e)
			if gok != wok || gc != wc {
				t.Fatalf("%s: edge %v estimate %g/%v, reference %g/%v", where, e, gc, gok, wc, wok)
			}
			if gok {
				st.pinned++
			}
		}
		for _, sg := range got {
			for s := range sessID {
				if sessID[s] == sg.Session {
					for v := 1; v < physical; v++ {
						if id(v) == sg.Node {
							level[s][v] = sg.Level
						}
					}
				}
			}
		}
	}
	if g, w := rngNew.Int63(), rngRef.Int63(); g != w {
		t.Fatalf("%s: next RNG draw %d, reference %d: the draws diverged", label, g, w)
	}
	return st
}

// stateScriptStats counts what a script exercised, so the suite can show
// it reached pins, timer expiry, timers outliving node state, Topology B,
// explain and clock jumps.
type stateScriptStats struct {
	pinned, expiries, outlived, topologyB, explained, jumps int
}

func randomStateScript(rng *rand.Rand) []byte {
	b := make([]byte, 400+rng.Intn(800))
	rng.Read(b)
	return b
}

func TestAlgorithmStateMatchesReference(t *testing.T) {
	var sum stateScriptStats
	for seed := int64(0); seed < 400; seed++ {
		st := runStateScript(t, fmt.Sprintf("seed %d", seed), randomStateScript(rand.New(rand.NewSource(seed))))
		sum.pinned += st.pinned
		sum.expiries += st.expiries
		sum.outlived += st.outlived
		sum.topologyB += st.topologyB
		sum.explained += st.explained
		sum.jumps += st.jumps
	}
	t.Logf("%+v", sum)
	if sum.pinned == 0 || sum.expiries == 0 || sum.outlived == 0 || sum.topologyB == 0 || sum.explained == 0 || sum.jumps == 0 {
		t.Errorf("the scripts missed a behaviour: %+v", sum)
	}
}

func FuzzAlgorithmState(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(randomStateScript(rand.New(rand.NewSource(seed))))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		runStateScript(t, "fuzz", script)
	})
}
