package receiver

import (
	"math"
	"testing"

	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/report"
	"toposense/internal/sim"
	"toposense/internal/source"
)

// ctrlStub collects control packets at the controller node.
type ctrlStub struct {
	node        *netsim.Node
	registers   []report.Register
	reports     []report.LossReport
	deregisters []report.Deregister
}

func (c *ctrlStub) Recv(p *netsim.Packet) {
	switch pl := p.Payload.(type) {
	case *report.Register:
		c.registers = append(c.registers, *pl)
	case *report.LossReport:
		c.reports = append(c.reports, *pl) // the report is the packet's: copy it
	case *report.Deregister:
		c.deregisters = append(c.deregisters, *pl)
	}
}

func (c *ctrlStub) suggest(e *sim.Engine, rx *Receiver, level int) {
	sg := report.Suggestion{Node: rx.Node().ID, Session: rx.Session(), Level: level, Sent: e.Now()}
	c.node.SendUnicast(report.NewControlPacket(c.node.ID, rx.Node().ID, report.SuggestionSize, e.Now(), sg))
}

// rig: src(controller here too) --- mid --- rx with configurable bottleneck
// on mid->rx.
type rig struct {
	e    *sim.Engine
	n    *netsim.Network
	d    *mcast.Domain
	src  *source.Source
	rx   *Receiver
	ctrl *ctrlStub
	mid  *netsim.Node
}

func newRig(t *testing.T, bottleneckBps float64, cfg Config) *rig {
	t.Helper()
	e := sim.NewEngine(11)
	n := netsim.New(e)
	srcNode := n.AddNode("src")
	mid := n.AddNode("mid")
	rxNode := n.AddNode("rx")
	fat := netsim.LinkConfig{Bandwidth: 100e6, Delay: 10 * sim.Millisecond, QueueLimit: 100}
	n.Connect(srcNode, mid, fat)
	n.Connect(mid, rxNode, netsim.LinkConfig{Bandwidth: bottleneckBps, Delay: 10 * sim.Millisecond, QueueLimit: 10})
	d := mcast.NewDomain(n)
	d.LeaveLatency = 200 * sim.Millisecond
	src := source.New(n, d, srcNode, source.Config{Session: 0})
	ctrl := &ctrlStub{node: srcNode}
	srcNode.AttachAgent(ctrl)
	cfg.Session = 0
	cfg.MaxLayers = 6
	cfg.Controller = srcNode.ID
	rx := New(n, d, rxNode, cfg)
	return &rig{e: e, n: n, d: d, src: src, rx: rx, ctrl: ctrl, mid: mid}
}

func TestRegisterOnStart(t *testing.T) {
	r := newRig(t, 10e6, Config{InitialLevel: 2})
	r.rx.Start()
	r.e.RunUntil(sim.Second)
	if len(r.ctrl.registers) != 1 {
		t.Fatalf("registers = %d, want 1", len(r.ctrl.registers))
	}
	reg := r.ctrl.registers[0]
	if reg.Node != r.rx.Node().ID || reg.Session != 0 || reg.Level != 2 {
		t.Errorf("register = %+v", reg)
	}
	if reg.String() == "" {
		t.Error("empty Register.String")
	}
}

func TestDepartLeavesGroupsAndDeregisters(t *testing.T) {
	// Depart is the full teardown: level drops to 0 (every layer group
	// left), reporting stops, and exactly one Deregister reaches the
	// controller — idempotently, however many times Depart is called.
	r := newRig(t, 10e6, Config{InitialLevel: 3})
	r.src.Start()
	r.rx.Start()
	r.e.RunUntil(5 * sim.Second)
	if r.rx.Level() != 3 {
		t.Fatalf("level before Depart = %d, want 3", r.rx.Level())
	}

	r.e.Schedule(sim.Second, func() {
		r.rx.Depart()
		r.rx.Depart() // idempotent: no second teardown, no second packet
	})
	r.e.RunUntil(7 * sim.Second)
	reportsAtDepart := len(r.ctrl.reports)

	if r.rx.Level() != 0 {
		t.Errorf("level after Depart = %d, want 0", r.rx.Level())
	}
	if len(r.ctrl.deregisters) != 1 {
		t.Fatalf("controller received %d Deregisters, want 1", len(r.ctrl.deregisters))
	}
	d := r.ctrl.deregisters[0]
	if d.Node != r.rx.Node().ID || d.Session != 0 {
		t.Errorf("deregister = %+v", d)
	}
	if d.String() == "" {
		t.Error("empty Deregister.String")
	}

	// Departed for good: reporting stays silent and the layer groups stay
	// left long past the leave latency.
	r.e.RunUntil(12 * sim.Second)
	if got := len(r.ctrl.reports); got != reportsAtDepart {
		t.Errorf("departed receiver kept reporting: %d -> %d", reportsAtDepart, got)
	}
	for layer := 1; layer <= 3; layer++ {
		g := r.d.GroupOf(0, layer)
		if r.d.OnTree(r.rx.Node().ID, g) {
			t.Errorf("layer %d group still forwarding to the departed receiver", layer)
		}
	}
}

func TestLossFreeReports(t *testing.T) {
	r := newRig(t, 10e6, Config{InitialLevel: 2})
	r.src.Start()
	r.rx.Start()
	r.e.RunUntil(10 * sim.Second)
	if len(r.ctrl.reports) < 15 {
		t.Fatalf("reports = %d, want ~20", len(r.ctrl.reports))
	}
	// Skip the first few reports (joins still propagating).
	var rates []float64
	for _, rep := range r.ctrl.reports[6:] {
		if rep.LossRate != 0 {
			t.Errorf("loss-free path reported loss %.3f", rep.LossRate)
		}
		rates = append(rates, rep.Rate())
	}
	mean := 0.0
	for _, x := range rates {
		mean += x
	}
	mean /= float64(len(rates))
	if math.Abs(mean-96_000) > 0.1*96_000 {
		t.Errorf("mean reported rate %.0f, want ~96000 (layers 1+2)", mean)
	}
	// The final report may still be in flight when the clock stops.
	if diff := r.rx.ReportsSent - int64(len(r.ctrl.reports)); diff < 0 || diff > 1 {
		t.Errorf("ReportsSent=%d, controller saw %d", r.rx.ReportsSent, len(r.ctrl.reports))
	}
}

func TestLossDetectionOnBottleneck(t *testing.T) {
	// Subscribe to 4 layers (480 Kbps) over a 128 Kbps bottleneck:
	// sustained heavy loss must be reported.
	r := newRig(t, 128e3, Config{InitialLevel: 4, UnilateralAfter: -1})
	r.src.Start()
	r.rx.Start()
	r.e.RunUntil(20 * sim.Second)
	late := r.ctrl.reports[len(r.ctrl.reports)-5:]
	for _, rep := range late {
		if rep.LossRate < 0.3 {
			t.Errorf("report loss %.3f, want heavy (>0.3) at 4x oversubscription", rep.LossRate)
		}
	}
	if r.rx.LastLoss < 0.3 {
		t.Errorf("LastLoss = %.3f", r.rx.LastLoss)
	}
}

func TestSuggestionDropIsImmediate(t *testing.T) {
	r := newRig(t, 10e6, Config{InitialLevel: 5})
	r.src.Start()
	r.rx.Start()
	r.e.RunUntil(2 * sim.Second)
	r.ctrl.suggest(r.e, r.rx, 1)
	r.e.RunUntil(3 * sim.Second)
	if r.rx.Level() != 1 {
		t.Fatalf("Level = %d after drop suggestion, want 1", r.rx.Level())
	}
	if r.rx.SuggestionsRecv != 1 {
		t.Errorf("SuggestionsRecv = %d", r.rx.SuggestionsRecv)
	}
}

func TestSuggestionAddsOneLayerAtATime(t *testing.T) {
	r := newRig(t, 10e6, Config{InitialLevel: 1})
	r.src.Start()
	r.rx.Start()
	r.e.RunUntil(sim.Second)
	r.ctrl.suggest(r.e, r.rx, 4)
	r.e.RunUntil(2 * sim.Second)
	if r.rx.Level() != 2 {
		t.Fatalf("Level = %d after one add suggestion, want 2", r.rx.Level())
	}
	r.ctrl.suggest(r.e, r.rx, 4)
	r.ctrl.suggest(r.e, r.rx, 4)
	r.e.RunUntil(3 * sim.Second)
	if r.rx.Level() != 4 {
		t.Fatalf("Level = %d after three suggestions, want 4", r.rx.Level())
	}
}

func TestSuggestionClamped(t *testing.T) {
	r := newRig(t, 10e6, Config{InitialLevel: 1})
	r.rx.Start()
	r.e.RunUntil(sim.Second)
	for i := 0; i < 10; i++ {
		r.ctrl.suggest(r.e, r.rx, 99)
		r.e.RunUntil(r.e.Now() + 100*sim.Millisecond)
	}
	if r.rx.Level() != 6 {
		t.Errorf("Level = %d, want clamp at 6", r.rx.Level())
	}
	r.ctrl.suggest(r.e, r.rx, -5)
	r.e.RunUntil(r.e.Now() + sim.Second)
	if r.rx.Level() != 0 {
		t.Errorf("Level = %d, want clamp at 0", r.rx.Level())
	}
}

func TestSuggestionForOtherNodeIgnored(t *testing.T) {
	r := newRig(t, 10e6, Config{InitialLevel: 2})
	r.rx.Start()
	r.e.RunUntil(sim.Second)
	// Addressed to the right node but wrong session.
	sg := report.Suggestion{Node: r.rx.Node().ID, Session: 9, Level: 5}
	r.ctrl.node.SendUnicast(report.NewControlPacket(r.ctrl.node.ID, r.rx.Node().ID, report.SuggestionSize, r.e.Now(), sg))
	r.e.RunUntil(2 * sim.Second)
	if r.rx.Level() != 2 || r.rx.SuggestionsRecv != 0 {
		t.Errorf("wrong-session suggestion applied: lvl=%d recv=%d", r.rx.Level(), r.rx.SuggestionsRecv)
	}
}

func TestUnilateralDropWhenControllerSilent(t *testing.T) {
	r := newRig(t, 128e3, Config{
		InitialLevel:    4,
		UnilateralAfter: 3 * sim.Second,
		UnilateralLoss:  0.2,
	})
	r.src.Start()
	r.rx.Start()
	r.e.RunUntil(30 * sim.Second)
	if r.rx.UnilateralDrops == 0 {
		t.Fatal("no unilateral drops despite silent controller and heavy loss")
	}
	if r.rx.Level() >= 4 {
		t.Errorf("Level = %d, want < 4 after unilateral drops", r.rx.Level())
	}
	if r.rx.Level() < 1 {
		t.Errorf("unilateral drops went below the base layer: %d", r.rx.Level())
	}
}

func TestNoUnilateralDropWhileSuggestionsFlow(t *testing.T) {
	r := newRig(t, 128e3, Config{
		InitialLevel:    4,
		UnilateralAfter: 3 * sim.Second,
		UnilateralLoss:  0.2,
	})
	r.src.Start()
	r.rx.Start()
	// Inject suggestions directly every second (bypassing the congested
	// bottleneck, which would lose them): the watchdog must never fire.
	r.e.Every(sim.Second, func() {
		r.rx.Recv(report.NewControlPacket(r.ctrl.node.ID, r.rx.Node().ID, report.SuggestionSize, r.e.Now(),
			report.Suggestion{Node: r.rx.Node().ID, Session: 0, Level: 4, Sent: r.e.Now()}))
	})
	r.e.RunUntil(20 * sim.Second)
	if r.rx.UnilateralDrops != 0 {
		t.Errorf("UnilateralDrops = %d with live controller", r.rx.UnilateralDrops)
	}
}

func TestChangesRecorded(t *testing.T) {
	r := newRig(t, 10e6, Config{InitialLevel: 2})
	var ch []Change
	r.rx.OnChange = func(c Change) { ch = append(ch, c) }
	r.rx.Start()
	r.e.RunUntil(sim.Second)
	r.ctrl.suggest(r.e, r.rx, 3)
	r.e.RunUntil(2 * sim.Second)
	r.ctrl.suggest(r.e, r.rx, 1)
	r.e.RunUntil(3 * sim.Second)
	if len(ch) != 3 { // 0->2 at start, 2->3, 3->1
		t.Fatalf("changes = %v", ch)
	}
	if ch[0].From != 0 || ch[0].To != 2 || ch[0].At != 0 || ch[1].To != 3 || ch[2].From != 3 || ch[2].To != 1 {
		t.Errorf("changes = %v", ch)
	}
	if ch[1].At <= sim.Second || ch[2].At <= ch[1].At {
		t.Errorf("change times out of order: %v", ch)
	}
}

func TestStopLeavesAllGroups(t *testing.T) {
	r := newRig(t, 10e6, Config{InitialLevel: 3})
	r.src.Start()
	r.rx.Start()
	r.e.RunUntil(2 * sim.Second)
	r.rx.Stop()
	r.e.RunUntil(5 * sim.Second) // leave latency + prunes complete
	for l := 1; l <= 6; l++ {
		g := r.d.GroupOf(0, l)
		if r.d.HasLocalMembers(r.rx.Node().ID, g) {
			t.Errorf("still a member of layer %d after Stop", l)
		}
	}
	if r.rx.Level() != 0 {
		t.Errorf("Level = %d after Stop", r.rx.Level())
	}
}

func TestStalePacketsAfterLeaveNotCounted(t *testing.T) {
	// Drop from 4 to 1: packets from the leave-latency window must not
	// count as received traffic for layers 2..4.
	r := newRig(t, 10e6, Config{InitialLevel: 4})
	r.src.Start()
	r.rx.Start()
	r.e.RunUntil(2 * sim.Second)
	r.ctrl.suggest(r.e, r.rx, 1)
	r.e.RunUntil(4 * sim.Second)
	// After the drop, reported rate should settle to layer 1 only.
	last := r.ctrl.reports[len(r.ctrl.reports)-1]
	if math.Abs(last.Rate()-32_000) > 0.25*32_000 {
		t.Errorf("rate after drop = %.0f, want ~32000", last.Rate())
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	e := sim.NewEngine(1)
	n := netsim.New(e)
	node := n.AddNode("rx")
	d := mcast.NewDomain(n)
	for _, cfg := range []Config{
		{MaxLayers: 0},
		{MaxLayers: 6, InitialLevel: -1},
		{MaxLayers: 6, InitialLevel: 7},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cfg %+v did not panic", cfg)
				}
			}()
			New(n, d, node, cfg)
		}()
	}
}

func TestReportRateHelper(t *testing.T) {
	rep := report.LossReport{Bytes: 12_000, Interval: sim.Second}
	if got := rep.Rate(); got != 96_000 {
		t.Errorf("Rate = %g, want 96000", got)
	}
	if (report.LossReport{}).Rate() != 0 {
		t.Error("zero-interval Rate should be 0")
	}
	if rep.String() == "" || (report.Suggestion{}).String() == "" {
		t.Error("empty payload String")
	}
}

// TestReportTimer: the one report timer ends its start offset, then ticks
// every interval; a Stop during the offset leaves the offset event to fire
// and return, a later Stop cancels the pending tick. Either way nothing of
// the receiver stays queued.
func TestReportTimer(t *testing.T) {
	r := newRig(t, 10e6, Config{InitialLevel: 1})
	r.rx.Start()
	r.rx.Stop() // inside the offset
	if !r.rx.timer.Active() {
		t.Error("a Stop inside the start offset cancelled the offset event")
	}
	r.e.RunUntil(5 * sim.Second)
	if r.rx.ReportsSent != 0 || r.e.Pending() != 0 {
		t.Errorf("stopped in its offset: %d reports, %d events queued", r.rx.ReportsSent, r.e.Pending())
	}

	r = newRig(t, 10e6, Config{InitialLevel: 1})
	r.rx.Start()
	r.e.RunUntil(5 * sim.Second)
	if got := r.rx.ReportsSent; got < 9 || got > 10 {
		t.Errorf("%d reports in 5 s at a 500 ms interval", got)
	}
	pending := r.rx.timer
	if !pending.Active() {
		t.Fatal("no tick pending before Stop")
	}
	r.rx.Stop()
	if pending.Active() {
		t.Error("a Stop while ticking left the pending tick queued")
	}
	sent := r.rx.ReportsSent
	r.e.RunUntil(10 * sim.Second)
	if r.rx.ReportsSent != sent || r.e.Pending() != 0 {
		t.Errorf("stopped while ticking: %d more reports, %d events queued", r.rx.ReportsSent-sent, r.e.Pending())
	}
}

// TestDepartedIncarnationsLeaveTheirNode: a node that saw many incarnations
// come and go holds exactly the live one, and only it hears a suggestion.
func TestDepartedIncarnationsLeaveTheirNode(t *testing.T) {
	r := newRig(t, 10e6, Config{InitialLevel: 1})
	node := r.rx.Node()
	live := r.rx
	live.Start()
	var gone []*Receiver
	for i := 0; i < 25; i++ {
		r.e.RunUntil(r.e.Now() + 700*sim.Millisecond)
		live.Depart()
		gone = append(gone, live)
		live = New(r.n, r.d, node, Config{Session: 0, MaxLayers: 6, InitialLevel: 1, Controller: r.ctrl.node.ID})
		live.Start()
	}
	if got := node.NumAgents(); got != 1 {
		t.Fatalf("node holds %d agents after 25 join/leave cycles, want the 1 live one", got)
	}
	r.e.RunUntil(r.e.Now() + sim.Second)
	r.ctrl.suggest(r.e, live, 2)
	r.e.RunUntil(r.e.Now() + sim.Second)
	if live.SuggestionsRecv != 1 || live.Level() != 2 {
		t.Errorf("live incarnation: %d suggestions, level %d", live.SuggestionsRecv, live.Level())
	}
	for _, rx := range gone {
		if rx.SuggestionsRecv != 0 {
			t.Fatal("a departed incarnation still hears its node's packets")
		}
	}
	if len(r.ctrl.registers) != 26 || len(r.ctrl.deregisters) != 25 {
		t.Errorf("controller heard %d registers and %d deregisters, want 26 and 25", len(r.ctrl.registers), len(r.ctrl.deregisters))
	}
}
