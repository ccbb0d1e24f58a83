package core

import (
	"math"
	"math/rand"
	"testing"

	"toposense/internal/sim"
)

func testConfig() Config {
	return NewConfig([]float64{32e3, 64e3, 128e3, 256e3, 512e3, 1024e3})
}

// newPass builds a standalone sessionPass for a topology with given leaf
// reports, the way Step's bind/report loop would, and binds its edges as
// the only pass of the step (see passes for several).
func newPass(a *Algorithm, topo *Topology, reports []ReceiverState) *sessionPass {
	p := &sessionPass{}
	p.bind(topo, a.session(topo.Session))
	for i := range reports {
		if li := p.local(reports[i].Node); li >= 0 {
			p.report[li] = &reports[i]
		}
	}
	a.bindEdges(0, []*sessionPass{p})
	return p
}

// passes binds the edge table of one step over ps, as Step does.
func (a *Algorithm) passes(now sim.Time, ps ...*sessionPass) []*sessionPass {
	a.bindEdges(now, ps)
	return ps
}

// setCapacity pins the estimate of edge e, creating the link if need be.
func (a *Algorithm) setCapacity(e Edge, capacity float64) {
	a.linkOf = growTo(a.linkOf, int(e.To)+1)
	k := a.link(e.From, e.To)
	if k < 0 {
		k = a.addLink(e.From, e.To)
	}
	a.links[k].capacity = capacity
}

// nodeStates counts node state entries over every session.
func (a *Algorithm) nodeStates() int {
	n := 0
	for _, s := range a.sessions {
		n += len(s.nodes)
	}
	return n
}

// at translates a NodeID to its local index, so tests can keep addressing
// pass columns by the topology's node numbers.
func (p *sessionPass) at(n NodeID) int32 {
	i := p.local(n)
	if i < 0 {
		panic("node not in pass")
	}
	return i
}

// finiteShares counts the edges of ps on which stage 4 set a share.
func finiteShares(ps ...*sessionPass) int {
	n := 0
	for _, p := range ps {
		for i := 1; i < len(p.nodes); i++ {
			if !math.IsInf(p.share[i], 1) {
				n++
			}
		}
	}
	return n
}

func (p *sessionPass) lossAt(n NodeID) float64   { return p.loss[p.at(n)] }
func (p *sessionPass) congestAt(n NodeID) bool   { return p.congest[p.at(n)] }
func (p *sessionPass) subBytesAt(n NodeID) int64 { return p.subBytes[p.at(n)] }
func (p *sessionPass) levelAt(n NodeID) int      { return p.level[p.at(n)] }
func (p *sessionPass) bneckAt(n NodeID) float64  { return p.bneck[p.at(n)] }
func (p *sessionPass) maxBWAt(n NodeID) float64  { return p.maxBW[p.at(n)] }
func (p *sessionPass) demandAt(n NodeID) int     { return p.demand[p.at(n)] }
func (p *sessionPass) supplyAt(n NodeID) int     { return p.supply[p.at(n)] }
func (p *sessionPass) shareAt(n NodeID) float64  { return p.share[p.at(n)] }

func TestCongestionLeafThreshold(t *testing.T) {
	a := New(testConfig(), nil)
	topo := star(0, 2) // leaves 2, 3 under node 1
	p := newPass(a, topo, []ReceiverState{
		{Node: 2, Session: 0, Level: 3, LossRate: 0.10, Bytes: 1000},
		{Node: 3, Session: 0, Level: 2, LossRate: 0.01, Bytes: 800},
	})
	a.computeCongestion(p)
	if !p.congestAt(2) {
		t.Error("leaf 2 at 10% loss not congested")
	}
	if p.congestAt(3) {
		t.Error("leaf 3 at 1% loss congested")
	}
}

func TestCongestionInternalMinLoss(t *testing.T) {
	a := New(testConfig(), nil)
	topo := star(0, 3)
	p := newPass(a, topo, []ReceiverState{
		{Node: 2, Session: 0, LossRate: 0.30, Bytes: 500, Level: 4},
		{Node: 3, Session: 0, LossRate: 0.10, Bytes: 900, Level: 3},
		{Node: 4, Session: 0, LossRate: 0.02, Bytes: 1200, Level: 2},
	})
	a.computeCongestion(p)
	// Internal loss = min over children.
	if p.lossAt(1) != 0.02 {
		t.Errorf("internal loss = %g, want 0.02", p.lossAt(1))
	}
	// Max bytes in subtree.
	if p.subBytesAt(1) != 1200 || p.subBytesAt(0) != 1200 {
		t.Errorf("subBytes = %d/%d, want 1200", p.subBytesAt(1), p.subBytesAt(0))
	}
	// Level = max of children.
	if p.levelAt(1) != 4 {
		t.Errorf("internal level = %d, want 4", p.levelAt(1))
	}
	// One healthy child: the internal node is NOT congested.
	if p.congestAt(1) {
		t.Error("internal congested despite a healthy child")
	}
}

func TestCongestionInternalAllChildrenSimilar(t *testing.T) {
	a := New(testConfig(), nil)
	topo := star(0, 3)
	p := newPass(a, topo, []ReceiverState{
		{Node: 2, Session: 0, LossRate: 0.20, Bytes: 500},
		{Node: 3, Session: 0, LossRate: 0.22, Bytes: 500},
		{Node: 4, Session: 0, LossRate: 0.18, Bytes: 500},
	})
	a.computeCongestion(p)
	if !p.congestAt(1) {
		t.Error("internal node with uniformly lossy children not congested")
	}
}

func TestCongestionInternalDissimilarChildren(t *testing.T) {
	cfg := testConfig()
	cfg.SimilarBand = 0.2 // tight band
	a := New(cfg, nil)
	// star(0, 3) plus a healthy sibling branch 9 under the root, which keeps
	// the root itself uncongested, so node 1's state reflects only the
	// similarity rule.
	topo := NewTopology(0, 0, map[NodeID]NodeID{1: 0, 2: 1, 3: 1, 4: 1, 9: 0},
		map[NodeID]bool{2: true, 3: true, 4: true, 9: true})
	// All of node 1's children above threshold, but wildly different:
	// points at separate downstream bottlenecks, not the shared link.
	p := newPass(a, topo, []ReceiverState{
		{Node: 2, Session: 0, LossRate: 0.06, Bytes: 500},
		{Node: 3, Session: 0, LossRate: 0.30, Bytes: 500},
		{Node: 4, Session: 0, LossRate: 0.90, Bytes: 500},
		{Node: 9, Session: 0, LossRate: 0.0, Bytes: 500},
	})
	a.computeCongestion(p)
	if p.congestAt(1) {
		t.Error("internal congested despite dissimilar child losses")
	}
}

func TestCongestionPropagatesFromParent(t *testing.T) {
	a := New(testConfig(), nil)
	// chain 0 -> 1 -> 2 -> 3(receiver); plus a second receiver branch at
	// 1 so node 1 is internal with two congested children.
	topo := NewTopology(0, 0, map[NodeID]NodeID{1: 0, 2: 1, 3: 2, 4: 1}, map[NodeID]bool{3: true, 4: true})
	p := newPass(a, topo, []ReceiverState{
		{Node: 3, Session: 0, LossRate: 0.20, Bytes: 100},
		{Node: 4, Session: 0, LossRate: 0.21, Bytes: 100},
	})
	a.computeCongestion(p)
	if !p.congestAt(1) {
		t.Fatal("node 1 should be congested (similar lossy children)")
	}
	// Node 2 is internal: congested because its parent 1 is.
	if !p.congestAt(2) {
		t.Error("internal child of congested parent not congested")
	}
}

func TestCongestionUnreportedLeafAssumedClean(t *testing.T) {
	a := New(testConfig(), nil)
	topo := star(0, 2)
	p := newPass(a, topo, []ReceiverState{
		{Node: 2, Session: 0, LossRate: 0.50, Bytes: 100},
		// leaf 3 never reported
	})
	a.computeCongestion(p)
	if p.congestAt(3) {
		t.Error("silent leaf treated as congested")
	}
	if p.lossAt(1) != 0 {
		t.Errorf("internal min loss = %g, want 0 (silent child)", p.lossAt(1))
	}
}

func TestCapacityInfiniteUntilLoss(t *testing.T) {
	a := New(testConfig(), nil)
	topo := chain(0, 3)
	p := newPass(a, topo, []ReceiverState{{Node: 2, Session: 0, LossRate: 0.0, Bytes: 100_000, Level: 3}})
	a.computeCongestion(p)
	a.estimateCapacities(0, a.passes(0, p))
	if _, ok := a.CapacityEstimate(Edge{From: 1, To: 2}); ok {
		t.Error("capacity pinned without loss")
	}
}

func TestCapacityPinnedOnLoss(t *testing.T) {
	cfg := testConfig()
	a := New(cfg, nil)
	// Two similarly lossy receivers behind node 1: the shared edge 0->1 is
	// pinnable (correlated losses localize the bottleneck).
	topo := star(0, 2)
	p := newPass(a, topo, []ReceiverState{
		{Node: 2, Session: 0, LossRate: 0.20, Bytes: 120_000, Level: 4},
		{Node: 3, Session: 0, LossRate: 0.21, Bytes: 110_000, Level: 4},
	})
	a.computeCongestion(p)
	a.estimateCapacities(0, a.passes(0, p))
	got, ok := a.CapacityEstimate(Edge{From: 0, To: 1})
	if !ok {
		t.Fatal("capacity not pinned despite correlated loss")
	}
	// Observed = max bytes any receiver in the subtree got through 0->1.
	want := 120_000.0 * 8 / cfg.Interval.Seconds()
	if math.Abs(got-want) > 1 {
		t.Errorf("capacity = %g, want %g", got, want)
	}
}

func TestCapacityNotPinnedForSingleObserver(t *testing.T) {
	// One receiver behind a chain: its loss cannot be localized to any
	// edge, so nothing is pinned (single-session bottlenecks are handled
	// by the demand table).
	a := New(testConfig(), nil)
	topo := chain(0, 3)
	p := newPass(a, topo, []ReceiverState{{Node: 2, Session: 0, LossRate: 0.30, Bytes: 120_000, Level: 4}})
	a.computeCongestion(p)
	a.estimateCapacities(0, a.passes(0, p))
	for _, e := range []Edge{{0, 1}, {1, 2}} {
		if _, ok := a.CapacityEstimate(e); ok {
			t.Errorf("edge %v pinned with a single observer", e)
		}
	}
}

func TestCapacityGrowthAndReset(t *testing.T) {
	cfg := testConfig()
	a := New(cfg, nil)
	topo := star(0, 2)
	lossy := []ReceiverState{
		{Node: 2, Session: 0, LossRate: 0.2, Bytes: 100_000, Level: 4},
		{Node: 3, Session: 0, LossRate: 0.21, Bytes: 90_000, Level: 4},
	}
	clean := []ReceiverState{
		{Node: 2, Session: 0, LossRate: 0, Bytes: 100_000, Level: 4},
		{Node: 3, Session: 0, LossRate: 0, Bytes: 90_000, Level: 4},
	}
	e := Edge{From: 0, To: 1}

	p := newPass(a, topo, lossy)
	a.computeCongestion(p)
	a.estimateCapacities(0, a.passes(0, p))
	c0, ok := a.CapacityEstimate(e)
	if !ok {
		t.Fatal("not pinned")
	}

	// Next interval, no loss: estimate grows by CapacityGrowth.
	p2 := newPass(a, topo, clean)
	a.computeCongestion(p2)
	a.estimateCapacities(cfg.Interval, a.passes(cfg.Interval, p2))
	c1, ok := a.CapacityEstimate(e)
	if !ok {
		t.Fatal("estimate vanished")
	}
	if math.Abs(c1-c0*(1+cfg.CapacityGrowth)) > 1e-6*c0 {
		t.Errorf("growth: %g -> %g, want factor %g", c0, c1, 1+cfg.CapacityGrowth)
	}

	// The estimate expires back to infinity after at most 1.5x the reset
	// period (per-link jitter randomizes the exact instant).
	p3 := newPass(a, topo, clean)
	a.computeCongestion(p3)
	a.estimateCapacities(cfg.CapacityResetPeriod*2, a.passes(cfg.CapacityResetPeriod*2, p3))
	if _, ok := a.CapacityEstimate(e); ok {
		t.Error("estimate survived well past the reset horizon")
	}
}

func TestCapacityNotPinnedWhenOneSessionHealthy(t *testing.T) {
	a := New(testConfig(), nil)
	// Two sessions share edge 0->1; only session 0 is losing (its own
	// downstream problem) — the shared link must stay infinite.
	t0 := chain(0, 3)
	t1 := chain(1, 3)
	p0 := newPass(a, t0, []ReceiverState{{Node: 2, Session: 0, LossRate: 0.30, Bytes: 50_000, Level: 4}})
	p1 := newPass(a, t1, []ReceiverState{{Node: 2, Session: 1, LossRate: 0.01, Bytes: 90_000, Level: 4}})
	a.computeCongestion(p0)
	a.computeCongestion(p1)
	a.estimateCapacities(0, a.passes(0, p0, p1))
	if _, ok := a.CapacityEstimate(Edge{From: 0, To: 1}); ok {
		t.Error("shared link pinned while one session is healthy")
	}
}

func TestCapacitySharedLinkSumsSessions(t *testing.T) {
	cfg := testConfig()
	a := New(cfg, nil)
	t0 := chain(0, 3)
	t1 := chain(1, 3)
	p0 := newPass(a, t0, []ReceiverState{{Node: 2, Session: 0, LossRate: 0.30, Bytes: 50_000, Level: 4}})
	p1 := newPass(a, t1, []ReceiverState{{Node: 2, Session: 1, LossRate: 0.25, Bytes: 70_000, Level: 4}})
	a.computeCongestion(p0)
	a.computeCongestion(p1)
	a.estimateCapacities(0, a.passes(0, p0, p1))
	got, ok := a.CapacityEstimate(Edge{From: 0, To: 1})
	if !ok {
		t.Fatal("shared link not pinned with both sessions lossy")
	}
	want := (50_000 + 70_000) * 8.0 / cfg.Interval.Seconds()
	if math.Abs(got-want) > 1 {
		t.Errorf("capacity = %g, want %g", got, want)
	}
}

func TestBottleneckPropagation(t *testing.T) {
	cfg := testConfig()
	a := New(cfg, nil)
	topo := chain(0, 4) // 0->1->2->3
	a.setCapacity(Edge{From: 0, To: 1}, 1e6)
	a.setCapacity(Edge{From: 1, To: 2}, 200e3)
	a.setCapacity(Edge{From: 2, To: 3}, 500e3)
	p := newPass(a, topo, nil)
	a.computeBottlenecks(p)
	if p.bneckAt(3) != 200e3 {
		t.Errorf("bottleneck at leaf = %g, want 200e3 (min on path)", p.bneckAt(3))
	}
	if p.bneckAt(1) != 1e6 {
		t.Errorf("bottleneck at 1 = %g", p.bneckAt(1))
	}
	if !math.IsInf(p.bneckAt(0), 1) {
		t.Errorf("root bottleneck should be +inf")
	}
	if p.maxBWAt(0) != 200e3 {
		t.Errorf("maxBW at root = %g, want 200e3", p.maxBWAt(0))
	}
}

func TestBottleneckMaxOverChildren(t *testing.T) {
	cfg := testConfig()
	a := New(cfg, nil)
	topo := star(0, 2) // 0 -> 1 -> {2, 3}
	a.setCapacity(Edge{From: 1, To: 2}, 100e3)
	a.setCapacity(Edge{From: 1, To: 3}, 500e3)
	p := newPass(a, topo, nil)
	a.computeBottlenecks(p)
	if p.maxBWAt(1) != 500e3 {
		t.Errorf("maxBW at 1 = %g, want 500e3 (fastest child)", p.maxBWAt(1))
	}
	if p.maxBWAt(2) != 100e3 || p.maxBWAt(3) != 500e3 {
		t.Errorf("leaf maxBW = %g/%g", p.maxBWAt(2), p.maxBWAt(3))
	}
}

// Property: bottleneck bandwidth is non-increasing from root to leaf.
func TestQuickBottleneckMonotone(t *testing.T) {
	cfg := testConfig()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(cfg, nil)
		n := rng.Intn(20) + 2
		parents := map[NodeID]NodeID{}
		for i := 1; i < n; i++ {
			p := NodeID(rng.Intn(i))
			parents[NodeID(i)] = p
			if rng.Intn(2) == 0 {
				a.setCapacity(Edge{From: p, To: NodeID(i)}, float64(rng.Intn(900)+100)*1e3)
			}
		}
		p := newPass(a, NewTopology(0, 0, parents, nil), nil)
		a.computeBottlenecks(p)
		for child, parent := range parents {
			if p.bneckAt(child) > p.bneckAt(parent) {
				return false
			}
		}
		return true
	}
	if err := quickCheck(f, 200); err != nil {
		t.Fatal(err)
	}
}

func TestShareBandwidthProportional(t *testing.T) {
	cfg := testConfig()
	a := New(cfg, nil)
	// Sessions 0 and 1 share edge 0->1; session 0's subtree can take 4
	// layers, session 1's only 1 (a 32k downstream bottleneck).
	t0 := chain(0, 3)
	t1 := chain(1, 3)
	a.setCapacity(Edge{From: 0, To: 1}, 512e3)
	a.setCapacity(Edge{From: 1, To: 2}, math.Inf(1))
	p0 := newPass(a, t0, []ReceiverState{{Node: 2, Session: 0, Level: 4, Bytes: 1}})
	p1 := newPass(a, t1, []ReceiverState{{Node: 2, Session: 1, Level: 1, Bytes: 1}})
	a.computeCongestion(p0)
	a.computeCongestion(p1)
	// Session 1's own path is pinched by a separate per-session edge: give
	// session 1 a tighter downstream link. Both sessions share 0->1 only.
	// For this unit test, constrain session 1 via its avail: re-pin the
	// shared edge and check proportionality of weights.
	a.shareBandwidth(a.passes(0, p0, p1))
	s0, s1 := p0.shareAt(1), p1.shareAt(1)
	if math.IsInf(s0, 1) || math.IsInf(s1, 1) {
		t.Fatalf("missing shares: %g, %g", s0, s1)
	}
	// Both subtrees look identical here (no per-session constraint), so
	// shares must be equal and sum to the capacity.
	if math.Abs(s0-s1) > 1 {
		t.Errorf("equal sessions got unequal shares: %g vs %g", s0, s1)
	}
	if math.Abs(s0+s1-512e3) > 1 {
		t.Errorf("shares do not sum to capacity: %g", s0+s1)
	}
}

func TestShareBandwidthRespectsDownstreamBottleneck(t *testing.T) {
	cfg := testConfig()
	a := New(cfg, nil)
	// Shared edge 0->1 at 992k. Session 1 has a 32k bottleneck deeper
	// (edge 1->2 pinned in ITS topology only is impossible — edges are
	// physical) so model it via distinct leaf edges: session 0 leaf at 2,
	// session 1 leaf at 3.
	t0 := NewTopology(0, 0, map[NodeID]NodeID{1: 0, 2: 1}, map[NodeID]bool{2: true})
	t1 := NewTopology(1, 0, map[NodeID]NodeID{1: 0, 3: 1}, map[NodeID]bool{3: true})
	a.setCapacity(Edge{From: 0, To: 1}, 992e3)
	a.setCapacity(Edge{From: 1, To: 3}, 32e3) // session 1 pinched
	p0 := newPass(a, t0, []ReceiverState{{Node: 2, Session: 0, Level: 4, Bytes: 1}})
	p1 := newPass(a, t1, []ReceiverState{{Node: 3, Session: 1, Level: 1, Bytes: 1}})
	a.computeCongestion(p0)
	a.computeCongestion(p1)
	a.shareBandwidth(a.passes(0, p0, p1))
	s0, s1 := p0.shareAt(1), p1.shareAt(1)
	if s0 <= s1 {
		t.Errorf("unconstrained session got no more than pinched one: %g vs %g", s0, s1)
	}
	if s1 < 32e3 {
		t.Errorf("session below base layer: %g", s1)
	}
	// Session 0's weight: min(992k - 1*32k, ...) = 960k usable -> 4 layers
	// (480k); session 1: 32k -> 1 layer. Weights 480:32 over 992k.
	want0 := 992e3 * 480.0 / 512.0
	if math.Abs(s0-want0) > 1 {
		t.Errorf("s0 = %g, want %g", s0, want0)
	}
}

func TestShareBandwidthSkipsUnsharedAndUnpinned(t *testing.T) {
	cfg := testConfig()
	a := New(cfg, nil)
	t0 := chain(0, 3)
	a.setCapacity(Edge{From: 0, To: 1}, 512e3)
	p0 := newPass(a, t0, []ReceiverState{{Node: 2, Session: 0, Level: 2, Bytes: 1}})
	a.computeCongestion(p0)
	a.shareBandwidth(a.passes(0, p0))
	if n := finiteShares(p0); n != 0 {
		t.Errorf("single-session link produced %d shares", n)
	}
	// Shared but unpinned link: also no shares.
	t1 := chain(1, 3)
	p1 := newPass(a, t1, []ReceiverState{{Node: 2, Session: 1, Level: 2, Bytes: 1}})
	a.computeCongestion(p1)
	a.setCapacity(Edge{From: 0, To: 1}, math.Inf(1))
	a.shareBandwidth(a.passes(0, p0, p1))
	if n := finiteShares(p0, p1); n != 0 {
		t.Errorf("unpinned shared link produced %d shares", n)
	}
}

// quickCheck runs a property with a bounded count.
func quickCheck(f func(int64) bool, n int) error {
	for i := 0; i < n; i++ {
		if !f(int64(i * 7919)) {
			return &quickError{seed: int64(i * 7919)}
		}
	}
	return nil
}

type quickError struct{ seed int64 }

func (e *quickError) Error() string { return "property failed at seed " + sim.Time(e.seed).String() }
