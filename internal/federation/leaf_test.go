package federation

import (
	"math/rand"
	"testing"

	"toposense/internal/controller"
	"toposense/internal/core"
	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/report"
	"toposense/internal/sim"
	"toposense/internal/source"
	"toposense/internal/topodisc"
)

// exportSink collects the DomainExports delivered to the parent's node.
type exportSink struct{ got []*DomainExport }

func (s *exportSink) Recv(p *netsim.Packet) {
	if exp, ok := p.Payload.(*DomainExport); ok {
		s.got = append(s.got, exp)
	}
}

// TestLeafExportSummary pins the leaf's per-session reduction of one pass
// input: two live sessions, one of them with a departure, and a session whose
// only receiver departed. The loss rates are not dyadic, so the mean is only
// exact when the rates are summed in input order.
func TestLeafExportSummary(t *testing.T) {
	e := sim.NewEngine(1)
	net := netsim.New(e)
	pn := net.AddNode("parent")
	ln := net.AddNode("leaf")
	net.Connect(pn, ln, netsim.LinkConfig{Bandwidth: 1e6, Delay: sim.Millisecond})
	d := mcast.NewDomain(net)
	tool := topodisc.NewTool(net, d, []int{1, 2, 4})
	alg := core.New(core.NewConfig(source.Rates(6)), rand.New(rand.NewSource(1)))
	ctrl := controller.New(net, d, ln, tool, alg)
	leaf := NewLeaf(ctrl, 3, pn.ID)
	sink := &exportSink{}
	pn.AttachAgent(sink)

	// One departure in live session 4, and session 2's only receiver.
	for _, r := range []report.Register{{Node: 20, Session: 4, Level: 1}, {Node: 21, Session: 2, Level: 1}} {
		ctrl.Recv(report.NewControlPacket(r.Node, ln.ID, report.RegisterSize, 0, r))
		ctrl.Unregister(r.Session, r.Node)
	}

	in := core.Input{Now: 5 * sim.Second, Reports: []core.ReceiverState{
		{Node: 10, Session: 1, Level: 2, LossRate: 0.1, Bytes: 1000},
		{Node: 11, Session: 1, Level: 5, LossRate: 0.2, Bytes: 2000},
		{Node: 12, Session: 1, Level: 3, LossRate: 0.3, Bytes: 3000},
		{Node: 13, Session: 4, Level: 1, LossRate: 0.7, Bytes: 400},
		{Node: 14, Session: 4, Level: 2, LossRate: 0.1, Bytes: 500},
	}}
	leaf.export(in.Now, in, nil)
	e.RunUntil(6 * sim.Second)

	if len(sink.got) != 1 {
		t.Fatalf("parent node received %d exports, want 1", len(sink.got))
	}
	exp := sink.got[0]
	if exp.Domain != 3 || exp.Leaf != ln.ID || exp.Pass != 1 || exp.Sent != in.Now {
		t.Errorf("export header = d%d leaf %d pass %d sent %v", exp.Domain, exp.Leaf, exp.Pass, exp.Sent)
	}
	want := []SessionSummary{
		{Session: 1, Receivers: 3, MeanLoss: 0.20000000000000004, MaxLoss: 0.3, TopLevel: 5},
		{Session: 2, Departures: 1},
		{Session: 4, Receivers: 2, MeanLoss: 0.39999999999999997, MaxLoss: 0.7, TopLevel: 2, Departures: 1},
	}
	if len(exp.Sessions) != len(want) {
		t.Fatalf("export sessions = %+v, want %+v", exp.Sessions, want)
	}
	for i := range want {
		if exp.Sessions[i] != want[i] {
			t.Errorf("session summary %d = %+v, want %+v", i, exp.Sessions[i], want[i])
		}
	}
	if exp.WireSize() != ExportBaseSize+3*ExportSessionSize {
		t.Errorf("export wire size %d", exp.WireSize())
	}
}
