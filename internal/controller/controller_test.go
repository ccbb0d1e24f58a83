package controller

import (
	"math/rand"
	"reflect"
	"testing"

	"toposense/internal/core"
	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/obs"
	"toposense/internal/receiver"
	"toposense/internal/report"
	"toposense/internal/sim"
	"toposense/internal/source"
	"toposense/internal/topodisc"
)

// world is a complete single-domain simulation for integration tests.
type world struct {
	e    *sim.Engine
	n    *netsim.Network
	d    *mcast.Domain
	tool *topodisc.Tool
	ctrl *Controller
	srcs []*source.Source
	rxs  []*receiver.Receiver
}

// buildChainWorld: src --fat-- r1 --bottleneck-- rx, controller at src.
func buildChainWorld(t *testing.T, bottleneck float64, peakToMean float64) *world {
	t.Helper()
	e := sim.NewEngine(99)
	n := netsim.New(e)
	srcNode := n.AddNode("src")
	r1 := n.AddNode("r1")
	rxNode := n.AddNode("rx")
	fat := netsim.LinkConfig{Bandwidth: 100e6, Delay: 200 * sim.Millisecond}
	n.Connect(srcNode, r1, fat)
	n.Connect(r1, rxNode, netsim.LinkConfig{Bandwidth: bottleneck, Delay: 200 * sim.Millisecond})
	d := mcast.NewDomain(n)
	src := source.New(n, d, srcNode, source.Config{Session: 0, PeakToMean: peakToMean})
	tool := topodisc.NewTool(n, d, []int{0})
	cfg := core.NewConfig(source.Rates(6))
	alg := core.New(cfg, rand.New(rand.NewSource(7)))
	ctrl := New(n, d, srcNode, tool, alg)
	rx := receiver.New(n, d, rxNode, receiver.Config{
		Session: 0, MaxLayers: 6, InitialLevel: 1, Controller: srcNode.ID,
	})
	return &world{e: e, n: n, d: d, tool: tool, ctrl: ctrl,
		srcs: []*source.Source{src}, rxs: []*receiver.Receiver{rx}}
}

func (w *world) start() {
	for _, s := range w.srcs {
		s.Start()
	}
	w.ctrl.Start()
	for _, r := range w.rxs {
		r.Start()
	}
}

func TestConvergesToBottleneckOptimal(t *testing.T) {
	// 500 Kbps bottleneck: optimal subscription is 4 layers (480 Kbps).
	w := buildChainWorld(t, 500e3, 0)
	w.start()
	w.e.RunUntil(120 * sim.Second)
	rx := w.rxs[0]
	if got := rx.Level(); got < 3 || got > 5 {
		t.Fatalf("level after 120s = %d, want ~4", got)
	}
	// Sample the level over the second minute: it should sit at 4 most of
	// the time (probes may briefly visit 5).
	at4 := 0
	samples := 0
	tick := w.e.Every(sim.Second, func() {
		samples++
		if rx.Level() == 4 {
			at4++
		}
	})
	w.e.RunUntil(240 * sim.Second)
	tick.Stop()
	if frac := float64(at4) / float64(samples); frac < 0.6 {
		t.Errorf("at the optimal level only %.0f%% of the time", frac*100)
	}
	if w.ctrl.StepsRun == 0 || w.ctrl.SuggestionsSent == 0 {
		t.Error("controller did not run")
	}
}

func TestConvergesLowBottleneck(t *testing.T) {
	// 100 Kbps bottleneck: optimal is 2 layers (96 Kbps).
	w := buildChainWorld(t, 100e3, 0)
	w.start()
	w.e.RunUntil(180 * sim.Second)
	if got := w.rxs[0].Level(); got < 1 || got > 3 {
		t.Fatalf("level = %d, want ~2", got)
	}
}

func TestHeterogeneousReceiversGetDifferentLevels(t *testing.T) {
	// Mini Topology A: two subtrees with different bottlenecks must reach
	// different levels — the slow one must not drag the fast one down.
	e := sim.NewEngine(4)
	n := netsim.New(e)
	srcNode := n.AddNode("src")
	hub := n.AddNode("hub")
	rSlow := n.AddNode("rslow")
	rFast := n.AddNode("rfast")
	slowRx := n.AddNode("slow-rx")
	fastRx := n.AddNode("fast-rx")
	fat := netsim.LinkConfig{Bandwidth: 100e6, Delay: 200 * sim.Millisecond}
	n.Connect(srcNode, hub, fat)
	n.Connect(hub, rSlow, fat)
	n.Connect(hub, rFast, fat)
	n.Connect(rSlow, slowRx, netsim.LinkConfig{Bandwidth: 100e3, Delay: 200 * sim.Millisecond})
	n.Connect(rFast, fastRx, netsim.LinkConfig{Bandwidth: 500e3, Delay: 200 * sim.Millisecond})
	d := mcast.NewDomain(n)
	src := source.New(n, d, srcNode, source.Config{Session: 0})
	tool := topodisc.NewTool(n, d, []int{0})
	alg := core.New(core.NewConfig(source.Rates(6)), rand.New(rand.NewSource(7)))
	ctrl := New(n, d, srcNode, tool, alg)
	slow := receiver.New(n, d, slowRx, receiver.Config{Session: 0, MaxLayers: 6, InitialLevel: 1, Controller: srcNode.ID})
	fast := receiver.New(n, d, fastRx, receiver.Config{Session: 0, MaxLayers: 6, InitialLevel: 1, Controller: srcNode.ID})
	src.Start()
	ctrl.Start()
	slow.Start()
	fast.Start()
	e.RunUntil(180 * sim.Second)
	if fast.Level() <= slow.Level() {
		t.Errorf("fast receiver at %d, slow at %d: heterogeneity collapsed", fast.Level(), slow.Level())
	}
	if slow.Level() < 1 || slow.Level() > 3 {
		t.Errorf("slow level = %d, want ~2", slow.Level())
	}
	if fast.Level() < 3 {
		t.Errorf("fast level = %d, want ~4", fast.Level())
	}
}

func TestControllerIgnoresUnregistered(t *testing.T) {
	w := buildChainWorld(t, 500e3, 0)
	// Start the controller and source, but never the receiver: no
	// registration, no reports, no tree -> no suggestions.
	for _, s := range w.srcs {
		s.Start()
	}
	w.ctrl.Start()
	w.e.RunUntil(20 * sim.Second)
	if w.ctrl.SuggestionsSent != 0 {
		t.Errorf("suggested to unregistered receivers: %d", w.ctrl.SuggestionsSent)
	}
}

func TestControllerStartStopIdempotent(t *testing.T) {
	w := buildChainWorld(t, 500e3, 0)
	w.ctrl.Start()
	w.ctrl.Start()
	w.e.RunUntil(10 * sim.Second)
	steps := w.ctrl.StepsRun
	w.ctrl.Stop()
	w.ctrl.Stop()
	w.e.RunUntil(20 * sim.Second)
	if w.ctrl.StepsRun != steps {
		t.Error("controller kept stepping after Stop")
	}
	if w.ctrl.Node() == nil || w.ctrl.Algorithm() == nil {
		t.Error("accessors broken")
	}
}

func TestControllerOnStepObserver(t *testing.T) {
	w := buildChainWorld(t, 500e3, 0)
	var calls int
	w.ctrl.OnStep = func(now sim.Time, in core.Input, out []core.Suggestion) { calls++ }
	w.start()
	w.e.RunUntil(10 * sim.Second)
	if calls == 0 {
		t.Error("OnStep never called")
	}
}

func TestControllerCountsRejectedTopologies(t *testing.T) {
	w := buildChainWorld(t, 500e3, 0)
	w.start()
	w.e.RunUntil(10 * sim.Second)
	if w.ctrl.TopologiesRejected != 0 {
		t.Fatalf("consistent snapshots rejected: %d", w.ctrl.TopologiesRejected)
	}
	// From now on every snapshot a pass reads claims a child its parent does
	// not list: the pass must skip the session and say so.
	tick := w.e.Every(500*sim.Millisecond, func() {
		if snap := w.tool.Discover(0); snap != nil {
			snap.Parent[99] = snap.Root
		}
	})
	defer tick.Stop()
	steps := w.ctrl.StepsRun
	w.e.RunUntil(30 * sim.Second)
	if got, want := w.ctrl.TopologiesRejected, w.ctrl.StepsRun-steps; got != want || got == 0 {
		t.Errorf("TopologiesRejected = %d over %d passes of one torn session", got, want)
	}
}

func TestControllerWorksWithStaleness(t *testing.T) {
	w := buildChainWorld(t, 500e3, 0)
	w.tool.Staleness = 4 * sim.Second
	w.start()
	w.e.RunUntil(180 * sim.Second)
	if got := w.rxs[0].Level(); got < 3 || got > 5 {
		t.Errorf("level with 4s staleness = %d, want ~4", got)
	}
}

func TestControllerVBRConverges(t *testing.T) {
	w := buildChainWorld(t, 500e3, 3)
	w.start()
	w.e.RunUntil(180 * sim.Second)
	if got := w.rxs[0].Level(); got < 2 || got > 6 {
		t.Errorf("VBR level = %d, want within [2,6]", got)
	}
}

func TestSnapshotToTopology(t *testing.T) {
	newSnap := func() *topodisc.Snapshot {
		return &topodisc.Snapshot{
			Session:   3,
			Root:      0,
			Parent:    map[netsim.NodeID]netsim.NodeID{1: 0, 2: 1, 3: 1},
			Children:  map[netsim.NodeID][]netsim.NodeID{0: {1}, 1: {2, 3}, 2: nil, 3: nil},
			MaxLayer:  map[netsim.NodeID]int{0: 2, 1: 2, 2: 2, 3: 1},
			Receivers: map[netsim.NodeID]bool{2: true, 3: true},
		}
	}
	snap, before := newSnap(), newSnap()
	topo := SnapshotToTopology(snap)
	if err := topo.Validate(); err != nil {
		t.Fatalf("converted topology invalid: %v", err)
	}
	if topo.Session != 3 || topo.Root != 0 || !topo.Receivers[2] {
		t.Errorf("conversion lost fields: %+v", topo)
	}
	// The topology shares the snapshot's maps, and a recorded snapshot is
	// immutable: nothing the controller does with the topology may write it.
	alg := core.New(core.NewConfig(source.Rates(6)), rand.New(rand.NewSource(7)))
	for pass := 1; pass <= 3; pass++ {
		alg.Step(core.Input{
			Now:        sim.Time(pass) * 4 * sim.Second,
			Topologies: []*core.Topology{topo},
			Reports: []core.ReceiverState{
				{Node: 2, Session: 3, Level: 2, LossRate: 0.2, Bytes: 40000},
				{Node: 3, Session: 3, Level: 1, LossRate: 0, Bytes: 16000},
			},
		})
	}
	if !reflect.DeepEqual(snap, before) {
		t.Errorf("Validate + Step wrote through to the snapshot:\n got  %+v\n want %+v", snap, before)
	}
}

func TestReportsImplyRegistration(t *testing.T) {
	// Even if the Register packet is lost, the first loss report registers
	// the receiver. Simulate by never sending Register: craft a receiver
	// with Controller set but call only the report path via a real run —
	// covered implicitly; here we inject a report directly.
	w := buildChainWorld(t, 500e3, 0)
	w.ctrl.Recv(&netsim.Packet{Payload: mustReport()})
	if w.ctrl.ReportsRecv != 1 {
		t.Fatal("report not consumed")
	}
	if len(w.ctrl.RegisteredReceivers()) != 1 {
		t.Error("report did not register the receiver")
	}
}

func mustReport() any {
	return &report.LossReport{Node: 5, Session: 0, Level: 2, LossRate: 0.1, Bytes: 1000, Interval: sim.Second}
}

func TestStalenessDelaysReports(t *testing.T) {
	w := buildChainWorld(t, 10e6, 0)
	w.ctrl.Staleness = 5 * sim.Second
	w.start()
	// After 4 s the receiver has sent reports, but none is old enough for
	// the controller to have consumed it.
	w.e.RunUntil(4 * sim.Second)
	if w.ctrl.ReportsRecv != 0 {
		t.Fatalf("consumed %d reports before the staleness horizon", w.ctrl.ReportsRecv)
	}
	w.e.RunUntil(20 * sim.Second)
	if w.ctrl.ReportsRecv == 0 {
		t.Fatal("reports never consumed")
	}
}

func TestStalenessKeepsItsOwnCopyOfReports(t *testing.T) {
	// Receiver reports ride pooled packets whose payload storage is recycled
	// when the delivery callback returns. The staleness path consumes a
	// report Staleness later, so it must have copied it: what the algorithm
	// sees 5 s on is what the receiver sent, not whatever the packet struct
	// carries by then (in a test binary: poison).
	w := buildChainWorld(t, 10e6, 0)
	w.ctrl.Staleness = 5 * sim.Second
	rx := w.rxs[0].Node().ID
	var seen int
	w.ctrl.OnStep = func(_ sim.Time, in core.Input, _ []core.Suggestion) {
		for _, r := range in.Reports {
			seen++
			if r.Node != rx || r.Session != 0 || r.Level < 1 || r.Level > 6 ||
				!(r.LossRate >= 0 && r.LossRate <= 1) || r.Bytes < 0 {
				t.Fatalf("stale report consumed from recycled storage: %+v", r)
			}
		}
	}
	w.start()
	w.e.RunUntil(30 * sim.Second)
	if seen == 0 || w.ctrl.ReportsRecv == 0 {
		t.Fatal("no report reached the algorithm")
	}
}

func TestRegistrationExpiresAfterSilence(t *testing.T) {
	w := buildChainWorld(t, 10e6, 0)
	w.start()
	w.e.RunUntil(20 * sim.Second)
	if len(w.ctrl.RegisteredReceivers()) == 0 {
		t.Fatal("receiver never registered")
	}
	// Silence the receiver; after 5 intervals it must be forgotten and
	// suggestions must stop.
	w.rxs[0].Stop()
	w.e.RunUntil(60 * sim.Second)
	if got := len(w.ctrl.RegisteredReceivers()); got != 0 {
		t.Errorf("ghost registrations: %d", got)
	}
	sent := w.ctrl.SuggestionsSent
	w.e.RunUntil(80 * sim.Second)
	if w.ctrl.SuggestionsSent != sent {
		t.Error("controller kept suggesting to a departed receiver")
	}
}

func TestNoResendAfterStop(t *testing.T) {
	// The mid-interval suggestion repeat is scheduled at each step; stopping
	// the controller between the step and the repeat must suppress it — a
	// stopped controller goes silent immediately.
	w := buildChainWorld(t, 500e3, 0)
	w.start()
	var sentAtStop int64
	// Steps run every 4 s; the step at t=20s schedules its repeat for 22s.
	w.e.Schedule(20*sim.Second+500*sim.Millisecond, func() {
		w.ctrl.Stop()
		sentAtStop = w.ctrl.SuggestionsSent
	})
	w.e.RunUntil(30 * sim.Second)
	if sentAtStop == 0 {
		t.Fatal("controller never sent a suggestion before the stop")
	}
	if w.ctrl.SuggestionsSent != sentAtStop {
		t.Errorf("suggestions after Stop: %d -> %d", sentAtStop, w.ctrl.SuggestionsSent)
	}
}

func TestNoResendToExpiredReceiver(t *testing.T) {
	// A receiver expiring between the step and the mid-interval repeat must
	// not be instructed by the repeat.
	w := buildChainWorld(t, 500e3, 0)
	w.start()
	var sentAtExpiry int64
	// Silence the receiver right after the 20s step, then — once its
	// in-flight reports have drained, so nothing re-registers it — drop the
	// registration before the 22s repeat, as the expiry sweep would.
	w.e.Schedule(20*sim.Second+200*sim.Millisecond, func() { w.rxs[0].Stop() })
	w.e.Schedule(21*sim.Second+500*sim.Millisecond, func() {
		w.ctrl.expire(0, w.rxs[0].Node().ID)
		sentAtExpiry = w.ctrl.SuggestionsSent
	})
	w.e.RunUntil(23 * sim.Second) // past the repeat at 22s, before the next step
	if sentAtExpiry == 0 {
		t.Fatal("controller never sent a suggestion before the expiry")
	}
	if w.ctrl.SuggestionsSent != sentAtExpiry {
		t.Errorf("repeat sent to an expired receiver: %d -> %d", sentAtExpiry, w.ctrl.SuggestionsSent)
	}
}

func TestReRegisterResetsTrackedLevel(t *testing.T) {
	// A receiver that restarts re-registers at its new level; the controller
	// must not keep tracking the stale one until the next loss report.
	w := buildChainWorld(t, 500e3, 0)
	w.ctrl.Recv(&netsim.Packet{Payload: &report.Register{Node: 5, Session: 0, Level: 2}})
	w.ctrl.Recv(&netsim.Packet{Payload: &report.LossReport{Node: 5, Session: 0, Level: 3, LossRate: 0, Bytes: 100, Interval: sim.Second}})
	if got := w.ctrl.view(0, 5).level; got != 3 {
		t.Fatalf("accumulator level = %d after report, want 3", got)
	}
	w.ctrl.Recv(&netsim.Packet{Payload: &report.Register{Node: 5, Session: 0, Level: 5}})
	if got := w.ctrl.view(0, 5).level; got != 5 {
		t.Errorf("accumulator level = %d after re-register, want 5", got)
	}
}

func TestStoppedReceiverIgnoresSuggestions(t *testing.T) {
	w := buildChainWorld(t, 10e6, 0)
	w.start()
	w.e.RunUntil(10 * sim.Second)
	rx := w.rxs[0]
	rx.Stop()
	if rx.Level() != 0 {
		t.Fatalf("level %d after Stop", rx.Level())
	}
	// Hand-deliver a suggestion: it must be ignored.
	rx.Recv(report.NewControlPacket(w.ctrl.Node().ID, rx.Node().ID, report.SuggestionSize, w.e.Now(),
		report.Suggestion{Node: rx.Node().ID, Session: 0, Level: 4}))
	w.e.RunUntil(15 * sim.Second)
	if rx.Level() != 0 {
		t.Errorf("stopped receiver rejoined to level %d", rx.Level())
	}
}

func TestNoResendToReRegisteredReceiver(t *testing.T) {
	// A receiver that expires and RE-registers between the step and the
	// mid-interval repeat is a new incarnation: the pending repeat was
	// computed from the old incarnation's reports and must not fire. A
	// plain "is it registered?" check cannot see this — the key is present
	// again — which is exactly what the registration generation pins.
	w := buildChainWorld(t, 500e3, 0)
	w.start()
	var sentAtSwap int64
	w.e.Schedule(20*sim.Second+200*sim.Millisecond, func() { w.rxs[0].Stop() })
	w.e.Schedule(21*sim.Second+500*sim.Millisecond, func() {
		// Expiry sweep drops the old incarnation...
		w.ctrl.expire(0, w.rxs[0].Node().ID)
		// ...and a restarted receiver on the same node registers at once,
		// before the 22s repeat fires.
		w.ctrl.Recv(&netsim.Packet{Payload: &report.Register{
			Node: w.rxs[0].Node().ID, Session: 0, Level: 1}})
		sentAtSwap = w.ctrl.SuggestionsSent
	})
	w.e.RunUntil(23 * sim.Second) // past the repeat at 22s, before the next step
	if sentAtSwap == 0 {
		t.Fatal("controller never sent a suggestion before the swap")
	}
	if w.ctrl.SuggestionsSent != sentAtSwap {
		t.Errorf("repeat sent to a re-registered receiver: %d -> %d", sentAtSwap, w.ctrl.SuggestionsSent)
	}
}

func TestDepartThenReRegisterGetsFreshLevel(t *testing.T) {
	// The churn lifecycle at the controller: register → deregister →
	// re-register. The deregistration must clear all four per-receiver
	// tables, and the re-registration is a fresh incarnation — it opens a
	// new generation and tracks the registered level, not the stale level
	// the departed incarnation last reported.
	w := buildChainWorld(t, 500e3, 0)
	w.ctrl.Recv(&netsim.Packet{Payload: &report.Register{Node: 5, Session: 0, Level: 2}})
	w.ctrl.Recv(&netsim.Packet{Payload: &report.LossReport{Node: 5, Session: 0, Level: 4, LossRate: 0, Bytes: 100, Interval: sim.Second}})
	gen := w.ctrl.view(0, 5).gen

	w.ctrl.Recv(&netsim.Packet{Payload: &report.Deregister{Node: 5, Session: 0}})
	if w.ctrl.DeregistersRecv != 1 {
		t.Fatalf("DeregistersRecv = %d, want 1", w.ctrl.DeregistersRecv)
	}
	if v := w.ctrl.view(0, 5); v != (rxView{}) {
		t.Errorf("state survived the Deregister: %+v", v)
	}
	if got := w.ctrl.PassDepartures(0); got != 1 {
		t.Errorf("PassDepartures(0) = %d, want 1", got)
	}
	if got := w.ctrl.DepartedSessions(); len(got) != 1 || got[0] != 0 {
		t.Errorf("DepartedSessions() = %v, want [0]", got)
	}
	// Deregistering an unknown receiver is a no-op, not a double count.
	w.ctrl.Recv(&netsim.Packet{Payload: &report.Deregister{Node: 5, Session: 0}})
	if got := w.ctrl.PassDepartures(0); got != 1 {
		t.Errorf("PassDepartures(0) after duplicate Deregister = %d, want 1", got)
	}

	w.ctrl.Recv(&netsim.Packet{Payload: &report.Register{Node: 5, Session: 0, Level: 1}})
	if got := w.ctrl.view(0, 5).level; got != 1 {
		t.Errorf("accumulator level after re-register = %d, want the fresh 1, not the stale 4", got)
	}
	if w.ctrl.view(0, 5).gen == gen {
		t.Error("re-register after Deregister did not open a new generation")
	}
}

func TestDepartSuppressesPendingResend(t *testing.T) {
	// End-to-end: a receiver that Departs between the step and the
	// mid-interval repeat must not be instructed by the repeat — the
	// Deregister packet drops the registration, and the generation check
	// skips the pending resend. Same timing as TestNoResendToExpiredReceiver
	// but through the real lifecycle instead of reaching into the tables.
	w := buildChainWorld(t, 500e3, 0)
	w.start()
	var sentAtDepart int64
	// Steps run every 4 s; the step at t=20s schedules its repeat for 22s.
	// Depart at 20.2s: the Deregister crosses two 200ms hops and lands well
	// before the sample at 21.5s.
	w.e.Schedule(20*sim.Second+200*sim.Millisecond, func() { w.rxs[0].Depart() })
	w.e.Schedule(21*sim.Second+500*sim.Millisecond, func() {
		sentAtDepart = w.ctrl.SuggestionsSent
	})
	w.e.RunUntil(23 * sim.Second) // past the repeat at 22s, before the next step
	if sentAtDepart == 0 {
		t.Fatal("controller never sent a suggestion before the departure")
	}
	if w.ctrl.DeregistersRecv != 1 {
		t.Fatalf("DeregistersRecv = %d, want 1", w.ctrl.DeregistersRecv)
	}
	if got := len(w.ctrl.RegisteredReceivers()); got != 0 {
		t.Errorf("%d receivers still registered after Depart", got)
	}
	if w.ctrl.SuggestionsSent != sentAtDepart {
		t.Errorf("repeat sent to a departed receiver: %d -> %d", sentAtDepart, w.ctrl.SuggestionsSent)
	}
}

func TestLossReportDoesNotBumpGeneration(t *testing.T) {
	// Reports from a live receiver must keep the registration generation:
	// bumping it would cancel every pending mid-interval repeat.
	w := buildChainWorld(t, 500e3, 0)
	w.ctrl.Recv(&netsim.Packet{Payload: &report.Register{Node: 5, Session: 0, Level: 2}})
	gen := w.ctrl.view(0, 5).gen
	w.ctrl.Recv(&netsim.Packet{Payload: &report.LossReport{Node: 5, Session: 0, Level: 2, Interval: sim.Second}})
	if got := w.ctrl.view(0, 5).gen; got != gen {
		t.Errorf("loss report changed generation %d -> %d", gen, got)
	}
	w.ctrl.Recv(&netsim.Packet{Payload: &report.Register{Node: 5, Session: 0, Level: 3}})
	if w.ctrl.view(0, 5).gen == gen {
		t.Error("re-register did not open a new generation")
	}
}

func TestControllerObsAudit(t *testing.T) {
	w := buildChainWorld(t, 500e3, 0)
	o := obs.New(obs.Options{})
	w.ctrl.SetObs(o)
	w.start()
	w.e.RunUntil(30 * sim.Second)

	if got, steps := o.Passes.Value(), w.ctrl.StepsRun; got != steps {
		t.Errorf("obs passes = %d, StepsRun = %d", got, steps)
	}
	if o.PassEvents.Count() != o.Passes.Value() {
		t.Errorf("pass-events observations = %d, passes = %d", o.PassEvents.Count(), o.Passes.Value())
	}
	// One receiver, reporting twice a second: every pass that had it
	// registered heard from it, so coverage is observed at exactly 1.
	if n := o.ReportCoverage.Count(); n == 0 || n > o.Passes.Value() || o.ReportCoverage.Mean() != 1 {
		t.Errorf("report coverage: %d observations over %d passes, mean %g; want every one at 1",
			n, o.Passes.Value(), o.ReportCoverage.Mean())
	}
	passes := o.Audit.Passes()
	if int64(len(passes)) != o.Audit.Total() || len(passes) == 0 {
		t.Fatalf("audit retained %d of %d passes", len(passes), o.Audit.Total())
	}
	// Once the receiver is registered and reporting, every pass must audit
	// it with its session tree evidence and a prescription.
	last := passes[len(passes)-1]
	if len(last.Receivers) != 1 {
		t.Fatalf("audit receivers = %+v", last.Receivers)
	}
	ent := last.Receivers[0]
	if ent.Node != int(w.rxs[0].Node().ID) || ent.Session != 0 {
		t.Errorf("audit entry identity = %+v", ent)
	}
	if !ent.OnTree || ent.Parent < 0 {
		t.Errorf("audit entry lacks topology evidence: %+v", ent)
	}
	if ent.Prescribed < 0 {
		t.Errorf("audit entry lacks prescription: %+v", ent)
	}
	if ent.Stale {
		t.Errorf("steadily reporting receiver marked stale: %+v", ent)
	}
	// Pass events land in the flight recorder with the pass number.
	var passEvents int
	for _, ev := range o.Rec.Events() {
		if ev.Kind == obs.EvPass {
			passEvents++
		}
	}
	if passEvents == 0 {
		t.Error("no EvPass events in the flight recorder")
	}
}
