package controller

import (
	"fmt"
	"math/rand"
	"testing"

	"toposense/internal/core"
	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/report"
	"toposense/internal/sim"
	"toposense/internal/source"
	"toposense/internal/topodisc"
)

// benchFanWorld builds a controller on a two-level tree: hops mid nodes off
// the controller, rxPerHop receiver nodes behind each. Returns the world's
// engine, the controller, and one suggestion per receiver node.
func benchFanWorld(tb testing.TB, hops, rxPerHop int) (*sim.Engine, *Controller, []core.Suggestion) {
	tb.Helper()
	e := sim.NewEngine(1)
	n := netsim.New(e)
	ctrlNode := n.AddNode("ctrl")
	fast := netsim.LinkConfig{Bandwidth: 1e9, Delay: sim.Millisecond, QueueLimit: 4096}
	var sugs []core.Suggestion
	for h := 0; h < hops; h++ {
		mid := n.AddNode(fmt.Sprintf("mid%d", h))
		n.Connect(ctrlNode, mid, fast)
		for i := 0; i < rxPerHop; i++ {
			rx := n.AddNode(fmt.Sprintf("rx%d-%d", h, i))
			n.Connect(mid, rx, fast)
			sugs = append(sugs, core.Suggestion{Node: rx.ID, Session: 0, Level: 3})
		}
	}
	d := mcast.NewDomain(n)
	tool := topodisc.NewTool(n, d, []int{0})
	alg := core.New(core.NewConfig(source.Rates(6)), rand.New(rand.NewSource(1)))
	c := New(n, d, ctrlNode, tool, alg)
	c.EnableAggregation()
	mcast.NewAggregator(n, ctrlNode.ID, 0)
	return e, c, sugs
}

// TestConsumeDispatchWireSizes drives one packet of each control payload
// through Recv and checks both halves of the fan-in accounting: the typed
// dispatch (which stat each payload bumps) and the modeled wire bytes
// (which must follow the declared size constants, including the
// per-entry aggregate sizing).
func TestConsumeDispatchWireSizes(t *testing.T) {
	e, c, _ := benchFanWorld(t, 1, 2)
	_ = e

	now := sim.Time(0)
	recv := func(size int, payload any) {
		c.Recv(report.NewControlPacket(9, c.node.ID, size, now, payload))
	}

	recv(report.RegisterSize, report.Register{Node: 9, Session: 0, Level: 1})
	if c.RegistersRecv != 1 || c.CtlMsgsRecv != 1 || c.CtlBytesRecv != report.RegisterSize {
		t.Errorf("after register: regs=%d msgs=%d bytes=%d",
			c.RegistersRecv, c.CtlMsgsRecv, c.CtlBytesRecv)
	}

	recv(report.LossReportSize, report.LossReport{Node: 9, Session: 0, Level: 1, LossRate: 0.1, Bytes: 100})
	if c.ReportsRecv != 1 || c.CtlBytesRecv != report.RegisterSize+report.LossReportSize {
		t.Errorf("after report: reports=%d bytes=%d", c.ReportsRecv, c.CtlBytesRecv)
	}

	agg := report.NewAggregate(0, 5)
	agg.Fold(report.LossReport{Node: 11, Session: 0, Level: 2, LossRate: 0.2, Bytes: 200})
	agg.Fold(report.LossReport{Node: 12, Session: 0, Level: 3, LossRate: 0.3, Bytes: 300})
	wantSize := report.AggregateBaseSize + 2*report.AggregateEntrySize
	if agg.WireSize() != wantSize {
		t.Fatalf("aggregate WireSize = %d, want %d", agg.WireSize(), wantSize)
	}
	recv(agg.WireSize(), agg)
	if c.AggregatesRecv != 1 {
		t.Errorf("AggregatesRecv = %d", c.AggregatesRecv)
	}
	// The aggregate folds as its two underlying reports.
	if c.ReportsRecv != 3 {
		t.Errorf("ReportsRecv = %d, want 3 (1 flat + 2 folded)", c.ReportsRecv)
	}
	want := int64(report.RegisterSize + report.LossReportSize + wantSize)
	if c.CtlBytesRecv != want {
		t.Errorf("CtlBytesRecv = %d, want %d", c.CtlBytesRecv, want)
	}
	if c.CtlMsgsRecv != 3 {
		t.Errorf("CtlMsgsRecv = %d, want 3", c.CtlMsgsRecv)
	}
}

// TestAggregateConsumeEquivalence is the decision-equivalence contract in
// unit form: consuming an in-network merge of N loss reports must leave the
// controller's per-interval view — the exact ReceiverStates handed to the
// algorithm — identical to consuming the N flat reports one by one.
func TestAggregateConsumeEquivalence(t *testing.T) {
	reports := []report.LossReport{
		{Node: 4, Session: 0, Level: 1, LossRate: 0.25, Bytes: 1000},
		{Node: 4, Session: 0, Level: 2, LossRate: 0.5, Bytes: 1500},
		{Node: 5, Session: 0, Level: 3, LossRate: 0.125, Bytes: 2000},
		{Node: 6, Session: 0, Level: 1, LossRate: 0, Bytes: 900},
		{Node: 5, Session: 0, Level: 3, LossRate: 0.375, Bytes: 2100},
	}

	capture := func(c *Controller) []core.ReceiverState {
		var got []core.ReceiverState
		c.OnStep = func(_ sim.Time, in core.Input, _ []core.Suggestion) {
			got = append([]core.ReceiverState(nil), in.Reports...)
		}
		c.step()
		return got
	}

	// Flat path: every report consumed individually.
	_, flat, _ := benchFanWorld(t, 1, 2)
	for i := range reports {
		flat.consume(&reports[i])
	}
	flatStates := capture(flat)

	// Aggregated path: the same reports folded in-network — split across
	// two subtree aggregates merged at different depths, as a tree would.
	_, agg, _ := benchFanWorld(t, 1, 2)
	left := report.NewAggregate(0, 100)
	for _, r := range reports[:2] {
		left.Fold(r)
	}
	right := report.NewAggregate(0, 101)
	for _, r := range reports[2:] {
		right.Fold(r)
	}
	left.Merge(right)
	right.Release()
	agg.consume(left) // consume releases it
	aggStates := capture(agg)

	if len(flatStates) == 0 {
		t.Fatal("flat path produced no receiver states")
	}
	if fmt.Sprint(flatStates) != fmt.Sprint(aggStates) {
		t.Errorf("aggregate consumption diverged from flat reports\nflat: %v\nagg:  %v",
			flatStates, aggStates)
	}

	// The aggregated pass additionally surfaces the subtree summary.
	var subs []core.SubtreeSummary
	agg.OnStep = func(_ sim.Time, in core.Input, _ []core.Suggestion) {
		subs = append([]core.SubtreeSummary(nil), in.Subtrees...)
	}
	// Feed a fresh aggregate (the first step consumed and cleared the map).
	a2 := report.NewAggregate(0, 100)
	a2.Fold(reports[0])
	agg.consume(a2)
	agg.step()
	if len(subs) != 1 || subs[0].Origin != 100 || subs[0].Receivers != 1 {
		t.Errorf("subtree summaries = %+v", subs)
	}
}

// TestBatchedFanoutDelivery runs the batched fan-out over the two-level
// tree: every registered receiver's prescription must arrive inside a
// pooled per-next-hop batch, one packet per mid node at the controller.
func TestBatchedFanoutDelivery(t *testing.T) {
	e, c, sugs := benchFanWorld(t, 3, 4)
	gens := make([]uint64, len(sugs))
	for i, sg := range sugs {
		c.consume(&report.Register{Node: sg.Node, Session: sg.Session, Level: 1})
		gens[i] = c.view(sg.Session, sg.Node).gen
	}
	c.sendBatched(sugs, gens, false)
	if c.BatchesSent != 3 {
		t.Errorf("BatchesSent = %d, want one per mid node (3)", c.BatchesSent)
	}
	if c.SuggestionsSent != int64(len(sugs)) {
		t.Errorf("SuggestionsSent = %d, want %d", c.SuggestionsSent, len(sugs))
	}
	e.Run()

	// Recheck mode with a re-registered receiver: its stale entry is skipped.
	c.consume(&report.Register{Node: sugs[0].Node, Session: 0, Level: 1})
	before := c.SuggestionsSent
	c.sendBatched(sugs, gens, true)
	if got := c.SuggestionsSent - before; got != int64(len(sugs)-1) {
		t.Errorf("recheck resent %d suggestions, want %d", got, len(sugs)-1)
	}
	e.Run()
}

// BenchmarkSuggestionFanout pins the batched fan-out hot path: one pass's
// worth of suggestions grouped into pooled per-next-hop batches and sent.
// The engine drains between iterations (untimed) so pooled packets and
// batches recycle; the steady state must not allocate.
func BenchmarkSuggestionFanout(b *testing.B) {
	e, c, sugs := benchFanWorld(b, 8, 32)
	gens := make([]uint64, len(sugs))
	// Warm the route columns, the packet and batch pools (down the whole
	// redistribution tree) and the scratch slices: the claim under test is
	// the steady state, not first-touch growth.
	for i := 0; i < 64; i++ {
		c.sendBatched(sugs, gens, false)
		e.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.sendBatched(sugs, gens, false)
		b.StopTimer()
		e.Run()
		b.StartTimer()
	}
	b.ReportMetric(float64(len(sugs)), "suggestions/op")
}
