package core

import (
	"testing"

	"toposense/internal/sim"
)

// These tests exercise the stage-5 demand/supply machinery directly through
// Step with hand-built inputs, checking the coordination rules the paper
// describes in prose: defer-to-congested-parent, back-off on the highest
// dropped layer, the reduction cool-down, and supply clamping.

// twoLeafTopo: root 0 -> hub 1 -> receivers 2 and 3.
func twoLeafTopo() *Topology { return star(0, 2) }

func TestDemandDeferToCongestedParent(t *testing.T) {
	// Both leaves heavily lossy with similar rates: the hub becomes
	// congested and acts; the leaves must NOT each take their own cut on
	// top of the hub's (which would double-reduce).
	cfg := testConfig()
	cfg.DisableCooldown = true // isolate the defer rule
	st := newStepper(cfg)
	topo := twoLeafTopo()
	reports := func(loss float64, bytes int64) []ReceiverState {
		return []ReceiverState{
			{Node: 2, Session: 0, Level: 4, LossRate: loss, Bytes: bytes},
			{Node: 3, Session: 0, Level: 4, LossRate: loss * 1.02, Bytes: bytes},
		}
	}
	st.step([]*Topology{topo}, reports(0, 120_000))
	st.step([]*Topology{topo}, reports(0, 120_000))
	// Three congested intervals: history reaches 7 at the hub.
	var last []Suggestion
	for i := 0; i < 3; i++ {
		last = st.step([]*Topology{topo}, reports(0.30, 120_000))
	}
	l2 := suggestionFor(last, 0, 2)
	l3 := suggestionFor(last, 0, 3)
	// Coordinated single reduction: both leaves get the same level and it
	// is a halving (4 -> 3 at most via cum(4)/2=240k -> 3), not a cascade
	// to 1.
	if l2 != l3 {
		t.Errorf("uncoordinated cuts: %d vs %d", l2, l3)
	}
	if l2 < 2 || l2 >= 4 {
		t.Errorf("reduction to %d, want one coordinated halving (2..3)", l2)
	}
}

func TestDemandBackoffArmsOnlyHighestLayer(t *testing.T) {
	cfg := testConfig()
	cfg.BackoffMin = 100 * sim.Second
	cfg.BackoffMax = 100 * sim.Second
	cfg.DisableCooldown = true
	st := newStepper(cfg)
	topo := chain(0, 3)
	// Force a two-layer reduction via hist 7 + Equal (halve old supply).
	st.step([]*Topology{topo}, []ReceiverState{{Node: 2, Session: 0, Level: 4, LossRate: 0, Bytes: 100_000}})
	for i := 0; i < 4; i++ {
		st.step([]*Topology{topo}, []ReceiverState{{Node: 2, Session: 0, Level: 4, LossRate: 0.30, Bytes: 100_000}})
	}
	if st.a.Backoffs() == 0 {
		t.Fatal("no backoffs armed")
	}
	// The receiver dropped below 4; only the topmost dropped layer should
	// be barred. Clean reports: the suggestion must climb again (lower
	// layers are not barred) but never reach past the barred layer 4.
	maxSeen := 0
	level := 2
	for i := 0; i < 6; i++ {
		bytes := int64(st.a.Config().CumRate(level) / 8 * st.a.Config().Interval.Seconds())
		sgs := st.step([]*Topology{topo}, []ReceiverState{
			{Node: 2, Session: 0, Level: level, LossRate: 0, Bytes: bytes},
		})
		got := suggestionFor(sgs, 0, 2)
		if got > maxSeen {
			maxSeen = got
		}
		level = got
	}
	if maxSeen < 3 {
		t.Errorf("climb blocked below the barred layer: max %d", maxSeen)
	}
	if maxSeen >= 4 {
		t.Errorf("barred layer re-added during back-off: max %d", maxSeen)
	}
}

func TestDemandCooldownPreventsCompoundCuts(t *testing.T) {
	// With the cool-down enabled, three consecutive lossy intervals
	// produce at most one cut within the window, not a cascade.
	withCooldown := minLevelAfterCrash(t, false)
	withoutCooldown := minLevelAfterCrash(t, true)
	if withoutCooldown > withCooldown {
		t.Errorf("cooldown made cuts deeper: %d (on) vs %d (off)", withCooldown, withoutCooldown)
	}
	if withCooldown <= 1 && withoutCooldown > 1 {
		t.Errorf("cooldown failed to prevent the cascade: reached %d", withCooldown)
	}
}

func minLevelAfterCrash(t *testing.T, disable bool) int {
	t.Helper()
	cfg := testConfig()
	cfg.DisableCooldown = disable
	st := newStepper(cfg)
	topo := twoLeafTopo()
	reports := func(level int, loss float64, bytes int64) []ReceiverState {
		return []ReceiverState{
			{Node: 2, Session: 0, Level: level, LossRate: loss, Bytes: bytes},
			{Node: 3, Session: 0, Level: level, LossRate: loss * 1.02, Bytes: bytes},
		}
	}
	st.step([]*Topology{topo}, reports(5, 0, 200_000))
	st.step([]*Topology{topo}, reports(5, 0, 200_000))
	min := 6
	level := 5
	for i := 0; i < 4; i++ {
		sgs := st.step([]*Topology{topo}, reports(level, 0.4, 100_000))
		got := suggestionFor(sgs, 0, 2)
		if got < min {
			min = got
		}
		level = got
	}
	return min
}

func TestDemandUnknownActionDefaultsSafe(t *testing.T) {
	// Feeding an out-of-range Action through the internal helpers must
	// not panic and must behave like maintain/accept.
	a := New(testConfig(), nil)
	p := newPass(a, chain(0, 3), nil)
	if got := a.leafDemand(0, p, 2, 3, &nodeState{}, Action(99)); got != 3 {
		t.Errorf("leaf unknown action -> %d, want 3", got)
	}
	if got := a.internalDemand(0, p, 1, 3, 4, &nodeState{}, Action(99)); got != 4 {
		t.Errorf("internal unknown action -> %d, want agg 4", got)
	}
}

func TestClampLevel(t *testing.T) {
	cases := []struct {
		target, current, want int
	}{
		{0, 4, 1},  // never below base layer
		{-3, 4, 1}, // never below base layer
		{2, 4, 2},
		{5, 4, 4}, // a reduction never raises
		{3, 0, 0}, // nothing subscribed: nothing to reduce
	}
	for _, c := range cases {
		if got := clampLevel(c.target, c.current); got != c.want {
			t.Errorf("clampLevel(%d, %d) = %d, want %d", c.target, c.current, got, c.want)
		}
	}
}

func TestHalfLevel(t *testing.T) {
	a := New(testConfig(), nil)
	// cum(4) = 480k; half = 240k -> level 3 (cum(3)=224k).
	if got := a.halfLevel(4); got != 3 {
		t.Errorf("halfLevel(4) = %d, want 3", got)
	}
	// cum(1) = 32k; half = 16k -> level 0.
	if got := a.halfLevel(1); got != 0 {
		t.Errorf("halfLevel(1) = %d, want 0", got)
	}
	if got := a.halfLevel(0); got != 0 {
		t.Errorf("halfLevel(0) = %d, want 0", got)
	}
}

func TestSuppliesHelper(t *testing.T) {
	if o, r := supplies(&nodeState{}); o != 0 || r != 0 {
		t.Errorf("first-sight supplies = %d, %d", o, r)
	}
	st := &nodeState{supplyPrev: 3, supplyPrev2: 5}
	if o, r := supplies(st); o != 5 || r != 3 {
		t.Errorf("supplies = %d, %d", o, r)
	}
}

func TestDemandDisableBackoffAblation(t *testing.T) {
	cfg := testConfig()
	cfg.DisableBackoff = true
	st := newStepper(cfg)
	topo := chain(0, 3)
	st.step([]*Topology{topo}, []ReceiverState{{Node: 2, Session: 0, Level: 4, LossRate: 0, Bytes: 100_000}})
	for i := 0; i < 4; i++ {
		st.step([]*Topology{topo}, []ReceiverState{{Node: 2, Session: 0, Level: 4, LossRate: 0.30, Bytes: 100_000}})
	}
	if st.a.Backoffs() != 0 {
		t.Errorf("backoffs armed despite DisableBackoff: %d", st.a.Backoffs())
	}
}

func TestDemandNewReceiverZeroLevelBootstrap(t *testing.T) {
	// A leaf that reports level 0 (just registered, nothing joined yet)
	// must be pushed to at least the base layer.
	st := newStepper(testConfig())
	topo := chain(0, 3)
	sgs := st.step([]*Topology{topo}, []ReceiverState{{Node: 2, Session: 0, Level: 0, LossRate: 0, Bytes: 0}})
	if got := suggestionFor(sgs, 0, 2); got < 1 {
		t.Errorf("bootstrap suggestion %d", got)
	}
}

func TestSupplyNeverExceedsDemandOrParent(t *testing.T) {
	// White-box invariant sweep: run several intervals with mixed loss
	// and assert, inside a custom step, that supply <= demand and
	// supply[child] <= max(supply[parent], 1) throughout the tree.
	a := New(testConfig(), nil)
	topo := star(0, 3)
	reports := []ReceiverState{
		{Node: 2, Session: 0, Level: 3, LossRate: 0.0, Bytes: 80_000},
		{Node: 3, Session: 0, Level: 4, LossRate: 0.2, Bytes: 60_000},
		{Node: 4, Session: 0, Level: 2, LossRate: 0.5, Bytes: 20_000},
	}
	for i := 1; i <= 6; i++ {
		now := sim.Time(i) * a.cfg.Interval
		p := newPass(a, topo, reports)
		ps := a.passes(now, p)
		a.computeCongestion(p)
		a.estimateCapacities(now, ps)
		a.computeBottlenecks(p)
		a.shareBandwidth(ps)
		a.computeDemand(now, p)
		a.allocateSupply(p)
		for _, n := range p.nodes {
			if p.supplyAt(n) > p.demandAt(n) && !(topo.isReceiver(n) && p.supplyAt(n) == 1) {
				t.Fatalf("interval %d: supply %d > demand %d at node %d", i, p.supplyAt(n), p.demandAt(n), n)
			}
			if parent, ok := topo.parentOf(n); ok {
				limit := p.supplyAt(parent)
				if limit < 1 {
					limit = 1 // receivers keep the base layer
				}
				if p.supplyAt(n) > limit {
					t.Fatalf("interval %d: child %d supply %d exceeds parent %d supply %d",
						i, n, p.supplyAt(n), parent, p.supplyAt(parent))
				}
			}
		}
		a.rollState(now, ps)
	}
}
