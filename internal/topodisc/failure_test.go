package topodisc

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"toposense/internal/core"
	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// TestRecordKeepsHistorySortedByAt is the regression test for the
// completion-order bug: a slow probe round that outlives a faster later
// round used to land *after* it in history, and Discover's early break then
// returned nothing (or the wrong snapshot) even though a perfectly
// servable snapshot existed.
func TestRecordKeepsHistorySortedByAt(t *testing.T) {
	f := newFixture(t)
	f.tool.Staleness = 4 * sim.Second
	f.tool.Period = sim.Second

	// Completion order: the round stamped At=5s (slow, started earlier,
	// finished late) is recorded after the round stamped At=3s... and a
	// fast round stamped At=5s arrives before the slow one stamped At=3s.
	f.tool.record(0, 5*sim.Second, &Snapshot{At: 5 * sim.Second})
	f.tool.record(0, 3*sim.Second, &Snapshot{At: 3 * sim.Second})

	h := f.tool.history[0]
	if len(h) != 2 || h[0].at != 3*sim.Second || h[1].at != 5*sim.Second {
		t.Fatalf("history not sorted by At: %v", historyAts(f))
	}

	// At now=8s with staleness 4s the cutoff is 4s: only the At=3s
	// snapshot may be served. Before the fix the unsorted scan hit the
	// At=5s entry first and bailed out with nil.
	f.e.RunUntil(8 * sim.Second)
	got := f.tool.Discover(0)
	if got == nil {
		t.Fatal("Discover returned nil despite a servable snapshot")
	}
	if got.At != 3*sim.Second {
		t.Errorf("Discover returned snapshot At=%v, want 3s", got.At)
	}
}

// TestRecordTrimsAgainstNewest checks the trim horizon is measured from the
// newest snapshot held, not from whichever snapshot happened to complete
// last.
func TestRecordTrimsAgainstNewest(t *testing.T) {
	f := newFixture(t)
	f.tool.Staleness = 0
	f.tool.Period = sim.Second // horizon = 5s

	f.tool.record(0, 1*sim.Second, &Snapshot{At: 1 * sim.Second})
	f.tool.record(0, 10*sim.Second, &Snapshot{At: 10 * sim.Second})
	// A stale straggler completes after the 10s round: it must not be
	// allowed to both enter history out of order and reprieve the 1s entry.
	f.tool.record(0, 9*sim.Second, &Snapshot{At: 9 * sim.Second})
	for _, r := range f.tool.history[0] {
		if r.at == 1*sim.Second {
			t.Fatalf("entry beyond the horizon survived: %v", historyAts(f))
		}
	}
}

// TestSnapshotTornByRepairInFlight re-homes a receiver from a slow link to
// a fast one: the graft under the new parent lands long before the detach
// from the old one, and a walk in between meets the receiver under both.
// That snapshot is torn, its tree listing the receiver once; once the
// detach lands the walk is whole again.
func TestSnapshotTornByRepairInFlight(t *testing.T) {
	e := sim.NewEngine(1)
	n := netsim.New(e)
	src := n.AddNode("src")
	b := n.AddNode("b") // the lower ID: preferred once its path is up
	a := n.AddNode("a")
	rx := n.AddNode("rx")
	fast := netsim.LinkConfig{Bandwidth: 10e6, Delay: sim.Millisecond}
	n.Connect(src, a, fast)
	n.Connect(src, b, fast)
	n.Connect(a, rx, netsim.LinkConfig{Bandwidth: 10e6, Delay: 50 * sim.Millisecond})
	n.Connect(b, rx, fast)
	d := newDomainWithGroups(n, src)
	bSrc, srcB := n.Node(b.ID).LinkTo(src.ID), n.Node(src.ID).LinkTo(b.ID)
	n.NextHop(rx.ID, src.ID) // materialize the routes before the cut
	bSrc.SetDown()
	srcB.SetDown()
	d.Join(rx.ID, d.GroupOf(0, 1), &member{})
	e.RunUntil(200 * sim.Millisecond)

	tool := NewTool(n, d, []int{0})
	if s := tool.SnapshotNow(0); s.Torn || !slices.Equal(s.Node, []netsim.NodeID{src.ID, a.ID, rx.ID}) {
		t.Fatalf("before the repair: torn %v, nodes %v", s.Torn, s.Node)
	}
	bSrc.SetUp()
	srcB.SetUp()
	e.RunUntil(e.Now() + 20*sim.Millisecond)
	s := tool.SnapshotNow(0)
	if !s.Torn {
		t.Fatalf("receiver listed under a and b, snapshot not torn: %v", s.Node)
	}
	if err := s.Validate(); err != nil || !slices.Equal(s.Node, []netsim.NodeID{src.ID, b.ID, a.ID, rx.ID}) {
		t.Errorf("torn walk: nodes %v, %v", s.Node, err)
	}
	e.RunUntil(e.Now() + 100*sim.Millisecond)
	s = tool.SnapshotNow(0)
	if p, _ := parentOf(s, rx.ID); s.Torn || p != b.ID {
		t.Errorf("after the detach: torn %v, rx under %d, want b %d", s.Torn, p, b.ID)
	}
}

// TestTrimmedSnapshotUnreachable: a snapshot trimmed from history must not
// stay reachable through the history's backing array, or every trim would
// keep a tree's arrays alive until the next reallocation.
func TestTrimmedSnapshotUnreachable(t *testing.T) {
	f := newFixture(t)
	f.tool.Staleness = 0
	f.tool.Period = sim.Second // horizon = 5s

	freed := make(chan struct{})
	old := &Snapshot{At: sim.Second, Topology: core.Topology{Node: make([]netsim.NodeID, 1<<10)}}
	runtime.SetFinalizer(old, func(*Snapshot) { close(freed) })
	f.tool.record(0, sim.Second, old)
	old = nil
	f.tool.record(0, 2*sim.Second, &Snapshot{At: 2 * sim.Second})
	f.tool.record(0, 10*sim.Second, &Snapshot{At: 10 * sim.Second}) // trims both
	if got := historyAts(f); len(got) != 1 {
		t.Fatalf("history after the trim: %v", got)
	}
	defer runtime.KeepAlive(f.tool) // the history must stay live through the check
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("a snapshot trimmed from history is still reachable")
}

func historyAts(f *fixture) []sim.Time {
	var out []sim.Time
	for _, r := range f.tool.history[0] {
		out = append(out, r.at)
	}
	return out
}

// TestProbeTraceSurvivesMidTraceReroute fails the traced path while probe
// traces are walking it: the traces must complete against the rerouted
// tables — possibly recording torn edges, which core.NewTopology reconciles
// — without panicking or leaking pending traces.
func TestProbeTraceSurvivesMidTraceReroute(t *testing.T) {
	e := sim.NewEngine(1)
	n := netsim.New(e)
	src := n.AddNode("src")
	x := n.AddNode("x")
	y := n.AddNode("y")
	rx := n.AddNode("rx")
	cfg := netsim.LinkConfig{Bandwidth: 10e6, Delay: 10 * sim.Millisecond}
	n.Connect(src, x, cfg)
	n.Connect(src, y, cfg)
	n.Connect(x, rx, cfg)
	n.Connect(y, rx, cfg)
	d := newDomainWithGroups(n, src)
	m := &member{}
	d.Join(rx.ID, d.GroupOf(0, 1), m)
	e.RunUntil(100 * sim.Millisecond)

	tool := NewTool(n, d, []int{0})
	tool.ProbeMode = true
	tool.Period = 10 * sim.Second
	// Launch one round, then cut the path it is walking after the first
	// hop is in flight.
	e.Schedule(0, tool.Start)
	e.Schedule(5*sim.Millisecond, func() {
		n.Node(src.ID).LinkTo(x.ID).SetDown()
		n.Node(x.ID).LinkTo(src.ID).SetDown()
	})
	e.RunUntil(5 * sim.Second)

	if got := tool.PendingTraces(); got != 0 {
		t.Fatalf("%d probe traces leaked across the reroute", got)
	}
	s := tool.Discover(0)
	if s == nil || s.Empty() {
		t.Fatal("no snapshot recorded after the reroute")
	}
	if rootOf(s) != src.ID {
		t.Errorf("trace did not reach the source over the rerouted path: root %d", rootOf(s))
	}
	if p, _ := parentOf(s, rx.ID); p != y.ID {
		t.Errorf("rerouted edge not recorded: parent of rx = %d, want y %d", p, y.ID)
	}
}

// TestProbeTraceOutageRootsAtCut cuts the receiver off entirely mid-round:
// the trace must terminate at the break instead of leaking.
func TestProbeTraceOutageRootsAtCut(t *testing.T) {
	f := newFixture(t)
	f.joinAll()
	f.tool.ProbeMode = true
	f.tool.Period = 10 * sim.Second
	f.e.Schedule(0, f.tool.Start)
	f.e.Schedule(5*sim.Millisecond, func() {
		// Sever r1-r2 in both directions: leafA/leafB traces in flight
		// toward r2 find no route onward; leafC's completes normally.
		f.n.Node(f.r1.ID).LinkTo(f.r2.ID).SetDown()
		f.n.Node(f.r2.ID).LinkTo(f.r1.ID).SetDown()
	})
	f.e.RunUntil(5 * sim.Second)
	if got := f.tool.PendingTraces(); got != 0 {
		t.Fatalf("%d probe traces leaked across the outage", got)
	}
	if s := f.tool.Discover(0); s == nil {
		t.Fatal("no snapshot recorded despite all traces finishing")
	}
}
