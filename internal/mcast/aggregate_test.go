package mcast

import (
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/report"
	"toposense/internal/sim"
)

// payloadRecorder keeps every control payload delivered to its node.
type payloadRecorder struct{ payloads []any }

func (r *payloadRecorder) Recv(p *netsim.Packet) { r.payloads = append(r.payloads, p.Payload) }

// buildAggTree: leaf0, leaf1 -> mid -> ctrl, aggregation installed.
func buildAggTree(t *testing.T) (*sim.Engine, *netsim.Network, *Aggregator, [2]*netsim.Node, *netsim.Node, *payloadRecorder) {
	t.Helper()
	e := sim.NewEngine(1)
	n := netsim.New(e)
	ctrl := n.AddNode("ctrl")
	mid := n.AddNode("mid")
	leaf0 := n.AddNode("leaf0")
	leaf1 := n.AddNode("leaf1")
	lc := netsim.LinkConfig{Bandwidth: 1e9, Delay: sim.Millisecond}
	n.Connect(ctrl, mid, lc)
	n.Connect(mid, leaf0, lc)
	n.Connect(mid, leaf1, lc)
	rec := &payloadRecorder{}
	ctrl.AttachAgent(rec)
	a := NewAggregator(n, ctrl.ID, 0)
	return e, n, a, [2]*netsim.Node{leaf0, leaf1}, ctrl, rec
}

func sendReport(n *netsim.Node, ctrl netsim.NodeID, r report.LossReport) {
	n.SendUnicast(report.NewControlPacket(n.ID, ctrl, report.LossReportSize, 0, r))
}

func TestAggregatorAbsorbsAndMergesUpward(t *testing.T) {
	e, _, a, leaves, ctrl, rec := buildAggTree(t)

	// Each leaf reports once; the reports are absorbed at their origin,
	// flushed up one level per flush interval, merged at mid, and arrive at
	// the controller as one aggregate from mid's subtree.
	sendReport(leaves[0], ctrl.ID, report.LossReport{
		Node: leaves[0].ID, Session: 0, Level: 2, LossRate: 0.25, Bytes: 1000})
	sendReport(leaves[1], ctrl.ID, report.LossReport{
		Node: leaves[1].ID, Session: 0, Level: 3, LossRate: 0.5, Bytes: 2000})
	e.RunUntil(3 * sim.Second)

	if a.Absorbed != 2 {
		t.Errorf("Absorbed = %d, want 2", a.Absorbed)
	}
	if a.Merged == 0 {
		t.Error("no child aggregates merged at mid")
	}
	// The controller saw aggregates only — never a flat LossReport.
	var aggs []*report.Aggregate
	for _, pl := range rec.payloads {
		switch pl := pl.(type) {
		case *report.Aggregate:
			aggs = append(aggs, pl)
		case *report.LossReport:
			t.Errorf("flat report leaked past the aggregation layer: %v", pl)
		}
	}
	if len(aggs) == 0 {
		t.Fatal("no aggregate reached the controller")
	}
	// Across all arriving aggregates the two reports appear exactly once.
	var reports int64
	var bytes int64
	var lossSum float64
	for _, ag := range aggs {
		for _, e := range ag.Entries {
			reports += int64(e.Reports)
			bytes += e.Bytes
			lossSum += e.LossSum
		}
		if ag.Origin != 1 { // mid is the controller's only child
			t.Errorf("aggregate origin = %d, want mid (1)", ag.Origin)
		}
	}
	if reports != 2 || bytes != 3000 || lossSum != 0.75 {
		t.Errorf("reports=%d bytes=%d loss=%g, want 2/3000/0.75", reports, bytes, lossSum)
	}
}

func TestAggregatorPassesUnrelatedControl(t *testing.T) {
	e, _, _, leaves, ctrl, rec := buildAggTree(t)
	// Registrations are not loss feedback; they must pass through.
	leaves[0].SendUnicast(report.NewControlPacket(leaves[0].ID, ctrl.ID, report.RegisterSize, 0,
		report.Register{Node: leaves[0].ID, Session: 0, Level: 1}))
	e.RunUntil(sim.Second)
	found := false
	for _, pl := range rec.payloads {
		if _, ok := pl.(*report.Register); ok {
			found = true
		}
	}
	if !found {
		t.Error("registration did not reach the controller")
	}
}

func TestAggregatorSplitsBatchesDownward(t *testing.T) {
	e, n, a, leaves, ctrl, _ := buildAggTree(t)
	rec0, rec1 := &payloadRecorder{}, &payloadRecorder{}
	leaves[0].AttachAgent(rec0)
	leaves[1].AttachAgent(rec1)

	// The controller's batch for mid's subtree: one entry per leaf. The
	// aggregator at mid must split it per next hop and forward.
	b := report.NewSuggestionBatch()
	b.Add(leaves[0].ID, 0, 4)
	b.Add(leaves[1].ID, 0, 2)
	pkt := n.NewPacket()
	pkt.Kind = netsim.Control
	pkt.Src = ctrl.ID
	pkt.Dst = 1 // mid
	pkt.Group = netsim.NoGroup
	pkt.Size = b.WireSize()
	pkt.Payload = b
	ctrl.SendUnicast(pkt)
	pkt.Release()
	e.RunUntil(sim.Second)

	if a.Batches != 2 {
		t.Errorf("Batches = %d, want 2 (one per leaf)", a.Batches)
	}
	check := func(name string, rec *payloadRecorder, node netsim.NodeID, want int) {
		t.Helper()
		for _, pl := range rec.payloads {
			if sb, ok := pl.(*report.SuggestionBatch); ok {
				if lvl, ok := sb.Find(node, 0); ok && lvl == want {
					return
				}
			}
		}
		t.Errorf("%s: no batch entry with level %d arrived", name, want)
	}
	check("leaf0", rec0, leaves[0].ID, 4)
	check("leaf1", rec1, leaves[1].ID, 2)
}

// TestAggregatorDeterministicFlushOrder: two sessions pending at one node
// flush in session order whatever order their reports arrived in.
func TestAggregatorFlushSessionOrder(t *testing.T) {
	e, _, _, leaves, ctrl, rec := buildAggTree(t)
	// Higher session first: the per-node pending list must stay sorted.
	sendReport(leaves[0], ctrl.ID, report.LossReport{Node: leaves[0].ID, Session: 3, Level: 1})
	sendReport(leaves[0], ctrl.ID, report.LossReport{Node: leaves[0].ID, Session: 1, Level: 1})
	e.RunUntil(3 * sim.Second)
	var sessions []int
	for _, pl := range rec.payloads {
		if ag, ok := pl.(*report.Aggregate); ok {
			sessions = append(sessions, ag.Session)
		}
	}
	if len(sessions) < 2 || sessions[0] != 1 || sessions[1] != 3 {
		t.Errorf("flush session order = %v, want [1 3 ...]", sessions)
	}
}
