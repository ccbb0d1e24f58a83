package core

import (
	"math/rand"
	"testing"

	"toposense/internal/sim"
)

// Randomized robustness tests: the algorithm must survive arbitrary (valid)
// topologies and arbitrary report values while preserving its output
// invariants. These complement the targeted stage tests with breadth.

// randTopology builds a random tree of up to maxNodes nodes for session s;
// every leaf is a receiver, and some internal nodes may be too.
func randTopology(rng *rand.Rand, session, maxNodes int) *Topology {
	n := rng.Intn(maxNodes-1) + 2
	root := NodeID(session * 1000)
	parent := map[NodeID]NodeID{}
	hasKids := map[NodeID]bool{}
	ids := []NodeID{root}
	for i := 1; i < n; i++ {
		id := NodeID(session*1000 + i)
		p := ids[rng.Intn(len(ids))]
		parent[id] = p
		hasKids[p] = true
		ids = append(ids, id)
	}
	receivers := map[NodeID]bool{}
	for _, id := range ids {
		if !hasKids[id] || rng.Intn(5) == 0 {
			if id != root {
				receivers[id] = true
			}
		}
	}
	return NewTopology(session, root, parent, receivers)
}

// randReports produces reports for a random subset of a topology's
// receivers with arbitrary (but type-valid) values.
func randReports(rng *rand.Rand, topo *Topology, maxLevel int) []ReceiverState {
	var out []ReceiverState
	for i, node := range topo.Node {
		if !topo.Receiver[i] {
			continue
		}
		if rng.Intn(4) == 0 {
			continue // silent receiver
		}
		out = append(out, ReceiverState{
			Node:     node,
			Session:  topo.Session,
			Level:    rng.Intn(maxLevel + 1),
			LossRate: rng.Float64(),
			Bytes:    rng.Int63n(1_000_000),
		})
	}
	return out
}

func TestFuzzStepInvariants(t *testing.T) {
	cfg := testConfig()
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := New(cfg, rand.New(rand.NewSource(seed+1)))
		sessions := rng.Intn(4) + 1
		for step := 1; step <= 20; step++ {
			var topos []*Topology
			var reports []ReceiverState
			for s := 0; s < sessions; s++ {
				topo := randTopology(rng, s, 12)
				if err := topo.Validate(); err != nil {
					t.Fatalf("seed %d: generated invalid topology: %v", seed, err)
				}
				topos = append(topos, topo)
				reports = append(reports, randReports(rng, topo, cfg.MaxLevel())...)
			}
			out := a.Step(Input{
				Now:        sim.Time(step) * cfg.Interval,
				Topologies: topos,
				Reports:    reports,
			})
			for _, sg := range out {
				if sg.Level < 1 || sg.Level > cfg.MaxLevel() {
					t.Fatalf("seed %d step %d: suggestion out of range: %+v", seed, step, sg)
				}
				found := false
				for _, topo := range topos {
					if topo.Session == sg.Session && topo.isReceiver(sg.Node) {
						found = true
					}
				}
				if !found {
					t.Fatalf("seed %d step %d: suggestion for a non-receiver: %+v", seed, step, sg)
				}
			}
		}
	}
}

func TestFuzzStepDeterminism(t *testing.T) {
	cfg := testConfig()
	run := func() []Suggestion {
		rng := rand.New(rand.NewSource(123))
		a := New(cfg, rand.New(rand.NewSource(321)))
		var last []Suggestion
		for step := 1; step <= 15; step++ {
			topo := randTopology(rng, 0, 10)
			last = a.Step(Input{
				Now:        sim.Time(step) * cfg.Interval,
				Topologies: []*Topology{topo},
				Reports:    randReports(rng, topo, cfg.MaxLevel()),
			})
		}
		return last
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFuzzChangingTopologyBetweenSteps(t *testing.T) {
	// The tree seen by the algorithm mutates every interval (receivers
	// come and go, discovery is stale/torn): persistent state keyed by
	// (session, node) must never wedge or leak unboundedly.
	cfg := testConfig()
	rng := rand.New(rand.NewSource(77))
	a := New(cfg, rand.New(rand.NewSource(78)))
	for step := 1; step <= 200; step++ {
		topo := randTopology(rng, 0, 20)
		a.Step(Input{
			Now:        sim.Time(step) * cfg.Interval,
			Topologies: []*Topology{topo},
			Reports:    randReports(rng, topo, cfg.MaxLevel()),
		})
	}
	// GC horizon is 10 intervals over trees of <= 20 nodes: state must be
	// bounded, not grow with the 200 steps.
	if a.nodeStates() > 20*12 {
		t.Errorf("node state leaked: %d entries", a.nodeStates())
	}
	if len(a.links) > 20*12 {
		t.Errorf("link state leaked: %d entries", len(a.links))
	}
}

func TestFuzzExtremeReports(t *testing.T) {
	// Hostile report values — loss > 1 can't happen from our receiver but
	// the algorithm should still behave (a real deployment can't trust
	// receivers).
	cfg := testConfig()
	a := New(cfg, nil)
	topo := star(0, 3)
	extremes := []ReceiverState{
		{Node: 2, Session: 0, Level: 99, LossRate: 5.0, Bytes: 1 << 60},
		{Node: 3, Session: 0, Level: -7, LossRate: -1.0, Bytes: -5},
		{Node: 4, Session: 0, Level: 0, LossRate: 0, Bytes: 0},
	}
	for step := 1; step <= 10; step++ {
		out := a.Step(Input{
			Now:        sim.Time(step) * cfg.Interval,
			Topologies: []*Topology{topo},
			Reports:    extremes,
		})
		for _, sg := range out {
			if sg.Level < 1 || sg.Level > cfg.MaxLevel() {
				t.Fatalf("step %d: extreme inputs produced out-of-range suggestion %+v", step, sg)
			}
		}
	}
}
