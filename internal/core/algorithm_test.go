package core

import (
	"math/rand"
	"testing"

	"toposense/internal/sim"
)

// stepper drives an Algorithm over synthetic intervals.
type stepper struct {
	a   *Algorithm
	now sim.Time
}

func newStepper(cfg Config) *stepper {
	return &stepper{a: New(cfg, rand.New(rand.NewSource(5)))}
}

func (s *stepper) step(topos []*Topology, reports []ReceiverState) []Suggestion {
	s.now += s.a.Config().Interval
	return s.a.Step(Input{Now: s.now, Topologies: topos, Reports: reports})
}

// suggestionFor extracts one receiver's suggested level (-1 if absent).
func suggestionFor(sgs []Suggestion, session int, node NodeID) int {
	for _, s := range sgs {
		if s.Session == session && s.Node == node {
			return s.Level
		}
	}
	return -1
}

func TestStepExplorationAddsOneLayerPerInterval(t *testing.T) {
	st := newStepper(testConfig())
	topo := chain(0, 3)
	level := 1
	for i := 0; i < 5; i++ {
		// Clean reports at the current level: bandwidth grows each
		// interval (BW lesser), history stays 0 -> Add.
		bytes := int64(st.a.Config().CumRate(level) / 8 * st.a.Config().Interval.Seconds())
		sgs := st.step([]*Topology{topo}, []ReceiverState{
			{Node: 2, Session: 0, Level: level, LossRate: 0, Bytes: bytes},
		})
		got := suggestionFor(sgs, 0, 2)
		if got != level+1 {
			t.Fatalf("interval %d: suggestion %d, want %d (one layer at a time)", i, got, level+1)
		}
		level = got
	}
}

func TestStepCapsAtMaxLevel(t *testing.T) {
	st := newStepper(testConfig())
	topo := chain(0, 3)
	for i := 0; i < 12; i++ {
		sgs := st.step([]*Topology{topo}, []ReceiverState{
			{Node: 2, Session: 0, Level: 6, LossRate: 0, Bytes: 500_000},
		})
		if got := suggestionFor(sgs, 0, 2); got > 6 {
			t.Fatalf("suggestion %d exceeds max level", got)
		}
	}
}

func TestStepCongestionDropsAndBacksOff(t *testing.T) {
	cfg := testConfig()
	st := newStepper(cfg)
	topo := chain(0, 3)
	// Two quiet intervals to seed history/bandwidth, then heavy loss with
	// declining bandwidth (BW greater is the painful row).
	st.step([]*Topology{topo}, []ReceiverState{{Node: 2, Session: 0, Level: 4, LossRate: 0, Bytes: 120_000}})
	st.step([]*Topology{topo}, []ReceiverState{{Node: 2, Session: 0, Level: 5, LossRate: 0, Bytes: 120_000}})
	var got int
	for i := 0; i < 3; i++ {
		sgs := st.step([]*Topology{topo}, []ReceiverState{
			{Node: 2, Session: 0, Level: 5, LossRate: 0.30, Bytes: 60_000},
		})
		got = suggestionFor(sgs, 0, 2)
	}
	if got >= 5 {
		t.Fatalf("no drop after sustained 30%% loss: suggestion %d", got)
	}
	if st.a.Backoffs() == 0 {
		t.Error("no back-off timers armed after a drop")
	}
}

func TestStepBackoffBlocksReAdd(t *testing.T) {
	cfg := testConfig()
	cfg.BackoffMin = 100 * sim.Second
	cfg.BackoffMax = 100 * sim.Second
	st := newStepper(cfg)
	topo := chain(0, 3)
	// Drive into a drop of layer 4.
	st.step([]*Topology{topo}, []ReceiverState{{Node: 2, Session: 0, Level: 4, LossRate: 0, Bytes: 120_000}})
	st.step([]*Topology{topo}, []ReceiverState{{Node: 2, Session: 0, Level: 4, LossRate: 0.30, Bytes: 120_000}})
	dropTo := -1
	for i := 0; i < 4 && dropTo < 0; i++ {
		sgs := st.step([]*Topology{topo}, []ReceiverState{
			{Node: 2, Session: 0, Level: 4, LossRate: 0.30, Bytes: 60_000},
		})
		if got := suggestionFor(sgs, 0, 2); got < 4 {
			dropTo = got
		}
	}
	if dropTo < 0 {
		t.Fatal("never dropped")
	}
	// Now the network is clean again, but the dropped layer is backing
	// off: suggestions must not climb past dropTo.
	for i := 0; i < 5; i++ {
		bytes := int64(st.a.Config().CumRate(dropTo) / 8 * st.a.Config().Interval.Seconds())
		sgs := st.step([]*Topology{topo}, []ReceiverState{
			{Node: 2, Session: 0, Level: dropTo, LossRate: 0, Bytes: bytes},
		})
		if got := suggestionFor(sgs, 0, 2); got > dropTo {
			t.Fatalf("re-added layer %d during back-off", got)
		}
	}
}

func TestStepBackoffExpires(t *testing.T) {
	cfg := testConfig()
	cfg.BackoffMin = 1 * sim.Second // expires within one interval (2s)
	cfg.BackoffMax = 1 * sim.Second
	st := newStepper(cfg)
	topo := chain(0, 3)
	st.step([]*Topology{topo}, []ReceiverState{{Node: 2, Session: 0, Level: 4, LossRate: 0, Bytes: 120_000}})
	st.step([]*Topology{topo}, []ReceiverState{{Node: 2, Session: 0, Level: 4, LossRate: 0.30, Bytes: 120_000}})
	for i := 0; i < 4; i++ {
		st.step([]*Topology{topo}, []ReceiverState{{Node: 2, Session: 0, Level: 4, LossRate: 0.30, Bytes: 60_000}})
	}
	// Clean reports: after the back-off lapses the algorithm explores
	// upward again within a few intervals.
	climbed := false
	level := 2
	for i := 0; i < 8; i++ {
		bytes := int64(st.a.Config().CumRate(level) / 8 * st.a.Config().Interval.Seconds())
		sgs := st.step([]*Topology{topo}, []ReceiverState{
			{Node: 2, Session: 0, Level: level, LossRate: 0, Bytes: bytes},
		})
		if got := suggestionFor(sgs, 0, 2); got > level {
			climbed = true
			break
		}
	}
	if !climbed {
		t.Error("never resumed exploration after back-off expiry")
	}
}

func TestStepSubtreeCoordination(t *testing.T) {
	// Two receivers under one congested branch: the subtree root reduces,
	// and BOTH leaves get the reduced supply (coordination).
	cfg := testConfig()
	st := newStepper(cfg)
	topo := star(0, 2) // 0 -> 1 -> {2, 3}
	reports := func(level int, loss float64, bytes int64) []ReceiverState {
		return []ReceiverState{
			{Node: 2, Session: 0, Level: level, LossRate: loss, Bytes: bytes},
			{Node: 3, Session: 0, Level: level, LossRate: loss * 1.05, Bytes: bytes},
		}
	}
	st.step([]*Topology{topo}, reports(4, 0, 120_000))
	st.step([]*Topology{topo}, reports(4, 0, 120_000))
	var s2, s3 int
	for i := 0; i < 4; i++ {
		sgs := st.step([]*Topology{topo}, reports(4, 0.30, 60_000))
		s2, s3 = suggestionFor(sgs, 0, 2), suggestionFor(sgs, 0, 3)
		if s2 < 4 {
			break
		}
	}
	if s2 >= 4 || s3 >= 4 {
		t.Fatalf("subtree did not reduce: %d/%d", s2, s3)
	}
	if s2 != s3 {
		t.Errorf("coordinated receivers got different levels: %d vs %d", s2, s3)
	}
}

func TestStepCapacityClampsSupply(t *testing.T) {
	// Once a shared bottleneck's capacity is estimated, supply is clamped
	// by it even if demand wants more. Two receivers behind the edge make
	// it pinnable.
	cfg := testConfig()
	st := newStepper(cfg)
	topo := star(0, 2)
	bytes := int64(cfg.CumRate(2) / 8 * cfg.Interval.Seconds())
	reports := func(level int, loss float64) []ReceiverState {
		return []ReceiverState{
			{Node: 2, Session: 0, Level: level, LossRate: loss, Bytes: bytes},
			{Node: 3, Session: 0, Level: level, LossRate: loss * 1.04, Bytes: bytes},
		}
	}
	st.step([]*Topology{topo}, reports(3, 0))
	for i := 0; i < 3; i++ {
		st.step([]*Topology{topo}, reports(3, 0.30))
	}
	if _, ok := st.a.CapacityEstimate(Edge{From: 0, To: 1}); !ok {
		t.Fatal("capacity not estimated")
	}
	// Clean reports at level 2: history clears, the algorithm wants to
	// add, but the capacity estimate (~2 layers' worth) holds supply down.
	for i := 0; i < 3; i++ {
		sgs := st.step([]*Topology{topo}, reports(2, 0))
		if got := suggestionFor(sgs, 0, 2); got > 3 {
			t.Fatalf("supply %d blew past the estimated capacity", got)
		}
	}
}

func TestStepNeverBelowBaseLayer(t *testing.T) {
	st := newStepper(testConfig())
	topo := chain(0, 3)
	for i := 0; i < 10; i++ {
		sgs := st.step([]*Topology{topo}, []ReceiverState{
			{Node: 2, Session: 0, Level: 1, LossRate: 0.9, Bytes: 100},
		})
		if got := suggestionFor(sgs, 0, 2); got < 1 {
			t.Fatalf("suggestion %d below base layer", got)
		}
	}
}

func TestStepMultipleSessionsSortedOutput(t *testing.T) {
	st := newStepper(testConfig())
	t0 := chain(0, 3)
	t1 := chain(1, 4)
	sgs := st.step([]*Topology{t1, t0}, []ReceiverState{
		{Node: 3, Session: 1, Level: 1, Bytes: 100},
		{Node: 2, Session: 0, Level: 1, Bytes: 100},
	})
	if len(sgs) != 2 {
		t.Fatalf("suggestions = %v", sgs)
	}
	if sgs[0].Session != 0 || sgs[1].Session != 1 {
		t.Errorf("output not sorted: %v", sgs)
	}
}

func TestStepSkipsNilAndEmptyTopologies(t *testing.T) {
	st := newStepper(testConfig())
	empty := &Topology{Session: 0}
	sgs := st.step([]*Topology{nil, empty}, nil)
	if len(sgs) != 0 {
		t.Errorf("suggestions from nil topologies: %v", sgs)
	}
}

func TestStepStateGC(t *testing.T) {
	cfg := testConfig()
	st := newStepper(cfg)
	topo := chain(0, 3)
	st.step([]*Topology{topo}, []ReceiverState{{Node: 2, Session: 0, Level: 1, Bytes: 100}})
	if st.a.nodeStates() == 0 {
		t.Fatal("no node state created")
	}
	// Session disappears; state must be GC'd after ~10 intervals.
	for i := 0; i < 12; i++ {
		st.step(nil, nil)
	}
	if st.a.nodeStates() != 0 {
		t.Errorf("%d node states survived GC", st.a.nodeStates())
	}
	if len(st.a.links) != 0 {
		t.Errorf("%d link states survived GC", len(st.a.links))
	}
}

func TestStepCountsSteps(t *testing.T) {
	st := newStepper(testConfig())
	for i := 0; i < 3; i++ {
		st.step(nil, nil)
	}
	if st.a.Steps() != 3 {
		t.Errorf("Steps = %d", st.a.Steps())
	}
}

func TestStepNewReceiverBootstrapsToBase(t *testing.T) {
	st := newStepper(testConfig())
	topo := chain(0, 3)
	// Receiver present in topology but never reported: suggest at least
	// the base layer.
	sgs := st.step([]*Topology{topo}, nil)
	if got := suggestionFor(sgs, 0, 2); got < 1 {
		t.Errorf("bootstrap suggestion = %d", got)
	}
}

func TestStepFairnessTwoSessionsSharedLink(t *testing.T) {
	// Both sessions push through one shared edge 0->1 with ~equal
	// subtrees; after sustained joint congestion the suggested levels must
	// be equal (inter-session fairness).
	cfg := testConfig()
	st := newStepper(cfg)
	t0 := NewTopology(0, 0, map[NodeID]NodeID{1: 0, 2: 1}, map[NodeID]bool{2: true})
	t1 := NewTopology(1, 0, map[NodeID]NodeID{1: 0, 3: 1}, map[NodeID]bool{3: true})
	topos := []*Topology{t0, t1}
	// Warm up clean at level 4, then joint loss at level 5.
	bytes := int64(cfg.CumRate(4) / 8 * cfg.Interval.Seconds())
	st.step(topos, []ReceiverState{
		{Node: 2, Session: 0, Level: 4, Bytes: bytes},
		{Node: 3, Session: 1, Level: 4, Bytes: bytes},
	})
	var last []Suggestion
	for i := 0; i < 4; i++ {
		last = st.step(topos, []ReceiverState{
			{Node: 2, Session: 0, Level: 5, LossRate: 0.25, Bytes: bytes},
			{Node: 3, Session: 1, Level: 5, LossRate: 0.26, Bytes: bytes},
		})
	}
	l0 := suggestionFor(last, 0, 2)
	l1 := suggestionFor(last, 1, 3)
	if l0 != l1 {
		t.Errorf("symmetric sessions diverged: %d vs %d", l0, l1)
	}
	if l0 >= 5 {
		t.Errorf("no reduction under joint congestion: %d", l0)
	}
}
