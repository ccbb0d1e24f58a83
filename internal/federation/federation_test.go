package federation

import (
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/report"
	"toposense/internal/sim"
	"toposense/internal/source"
)

// parentRig is a two-node harness: the parent at node a, one leaf domain
// whose exports originate at node b. Exports are injected as real control
// packets over the link, so the parent consumes them in node context exactly
// as in a full world.
type parentRig struct {
	e      *sim.Engine
	net    *netsim.Network
	a, b   *netsim.Node
	parent *Parent
	pass   int64
	// Budget updates the parent pushed to the leaf node, in arrival order.
	updates []*BudgetUpdate
}

func (r *parentRig) Recv(p *netsim.Packet) {
	if bu, ok := p.Payload.(*BudgetUpdate); ok {
		r.updates = append(r.updates, bu)
	}
}

func newParentRig(t *testing.T, rates []float64) *parentRig {
	t.Helper()
	e := sim.NewEngine(1)
	net := netsim.New(e)
	a := net.AddNode("parent")
	b := net.AddNode("leaf")
	net.Connect(a, b, netsim.LinkConfig{Bandwidth: 1e6, Delay: sim.Millisecond})
	r := &parentRig{e: e, net: net, a: a, b: b}
	r.parent = NewParent(net, a, rates, sim.Second)
	b.AttachAgent(r)
	return r
}

// export schedules a fresh single-session export from the leaf at time at.
func (r *parentRig) export(at sim.Time, s SessionSummary) {
	r.pass++
	pass := r.pass
	r.e.At(at, func() {
		exp := &DomainExport{Domain: 1, Leaf: r.b.ID, Pass: pass, Sent: r.e.Now(),
			Sessions: []SessionSummary{s}}
		r.b.SendUnicast(report.NewControlPacket(r.b.ID, r.a.ID, exp.WireSize(), r.e.Now(), exp))
	})
}

func TestWireSizes(t *testing.T) {
	e := &DomainExport{Sessions: make([]SessionSummary, 3)}
	if got, want := e.WireSize(), ExportBaseSize+3*ExportSessionSize; got != want {
		t.Errorf("export wire size %d, want %d", got, want)
	}
	b := &BudgetUpdate{Budgets: make([]SessionBudget, 5)}
	if got, want := b.WireSize(), BudgetBaseSize+5*BudgetEntrySize; got != want {
		t.Errorf("budget wire size %d, want %d", got, want)
	}
}

// TestCeilingFromBorderBandwidth pins the budget ceiling derivation: the
// highest cumulative-rate level fitting the granted border share, floored at
// level 1, uncapped when no bandwidth is declared.
func TestCeilingFromBorderBandwidth(t *testing.T) {
	rates := source.Rates(6)
	r := newParentRig(t, rates)
	p := r.parent
	p.AddDomain(DomainConfig{Domain: 1, Leaf: r.b.ID, BorderBandwidth: 600e3})
	p.AddDomain(DomainConfig{Domain: 2, Leaf: r.b.ID})                                      // uncapped
	p.AddDomain(DomainConfig{Domain: 3, Leaf: r.b.ID, BorderBandwidth: 1})                  // starvation floor
	p.AddDomain(DomainConfig{Domain: 4, Leaf: r.b.ID, BorderBandwidth: 1200e3, Share: 0.5}) // share applies

	if got, want := p.Ceiling(1), source.LevelForBandwidth(rates, 600e3); got != want {
		t.Errorf("600k ceiling %d, want %d", got, want)
	}
	if got := p.Ceiling(2); got != 6 {
		t.Errorf("uncapped ceiling %d, want 6", got)
	}
	if got := p.Ceiling(3); got != 1 {
		t.Errorf("starved domain ceiling %d, want 1 (floor)", got)
	}
	if got, want := p.Ceiling(4), p.Ceiling(1); got != want {
		t.Errorf("half of 1200k ceiling %d, want same as 600k (%d)", got, want)
	}
	if got := p.Ceiling(99); got != 0 {
		t.Errorf("unknown domain ceiling %d, want 0", got)
	}
}

// TestBudgetClimb: a domain binding cleanly climbs from InitialBudget one
// level per RaiseAfter fresh exports up to its ceiling, then stops — and each
// push carries only the changed entry.
func TestBudgetClimb(t *testing.T) {
	r := newParentRig(t, source.Rates(6))
	r.parent.AddDomain(DomainConfig{Domain: 1, Leaf: r.b.ID, BorderBandwidth: 600e3})
	ceiling := r.parent.Ceiling(1) // 4 with the default rate stack
	r.parent.Start()

	// A fresh, clean, always-binding export every second for 30 s.
	for i := 0; i < 30; i++ {
		r.export(sim.Time(i)*sim.Second+100*sim.Millisecond,
			SessionSummary{Session: 0, Receivers: 3, MaxLoss: 0, MeanLoss: 0, TopLevel: 6})
	}
	r.e.RunUntil(31 * sim.Second)

	if got := r.parent.Budget(1, 0); got != ceiling {
		t.Errorf("budget settled at %d, want ceiling %d", got, ceiling)
	}
	// InitialBudget grant plus one raise per level up to the ceiling.
	wantChanges := int64(ceiling) // 1 grant + (ceiling-1) raises
	changes, _ := r.parent.ChangesFor(1)
	if changes != wantChanges {
		t.Errorf("budget changes %d, want %d (grant + climb, no churn past the ceiling)", changes, wantChanges)
	}
	// Climb pace: a raise only after RaiseAfter consecutive clean binding
	// exports, so the climb must not be complete before ~RaiseAfter*(ceiling-1)
	// fresh exports.
	if len(r.updates) != int(wantChanges) {
		t.Fatalf("leaf received %d budget updates, want %d", len(r.updates), wantChanges)
	}
	for i, bu := range r.updates {
		if len(bu.Budgets) != 1 {
			t.Fatalf("update %d carries %d entries, want 1 (deltas only)", i, len(bu.Budgets))
		}
		if got, want := bu.Budgets[0].MaxLevel, i+1; got != want {
			t.Errorf("update %d grants level %d, want %d", i, got, want)
		}
	}
}

// TestFreshnessToken: without a fresh export the budgets hold steady — the
// reconcile loop never acts twice on the same pass.
func TestFreshnessToken(t *testing.T) {
	r := newParentRig(t, source.Rates(6))
	r.parent.AddDomain(DomainConfig{Domain: 1, Leaf: r.b.ID})
	r.parent.Start()

	// One export, then silence for 10 reconcile passes.
	r.export(100*sim.Millisecond, SessionSummary{Session: 0, TopLevel: 6})
	r.e.RunUntil(10 * sim.Second)

	if got := r.parent.Budget(1, 0); got != InitialBudget {
		t.Errorf("silent domain's budget drifted to %d, want %d", got, InitialBudget)
	}
	changes, _ := r.parent.ChangesFor(1)
	if changes != 1 {
		t.Errorf("%d budget changes on one export, want 1", changes)
	}
	if r.parent.Reconciles < 9 {
		t.Errorf("reconcile loop ran %d times, want >= 9", r.parent.Reconciles)
	}
}

// TestCutEpisodeAndLearnedCeiling: severe loss must persist for CutAfter
// consecutive exports before a cut, a distress episode still counts when the
// receivers retreat below the budget before the loss echo clears, and the cut
// ratchets the learned ceiling so the level is never re-granted.
func TestCutEpisodeAndLearnedCeiling(t *testing.T) {
	r := newParentRig(t, source.Rates(6))
	r.parent.AddDomain(DomainConfig{Domain: 1, Leaf: r.b.ID, BorderBandwidth: 600e3})
	ceiling := r.parent.Ceiling(1)
	r.parent.Start()

	at := func(i int) sim.Time { return sim.Time(i)*sim.Second + 100*sim.Millisecond }
	i := 0
	// Climb to the ceiling.
	for ; i < 2*ceiling+2; i++ {
		r.export(at(i), SessionSummary{Session: 0, TopLevel: 6})
	}
	// A single lossy binding export: a join transient, must NOT cut.
	r.export(at(i), SessionSummary{Session: 0, MaxLoss: 0.6, MeanLoss: 0.3, TopLevel: ceiling})
	i++
	// One clean non-binding export resets the streak.
	r.export(at(i), SessionSummary{Session: 0, MaxLoss: 0, TopLevel: 1})
	i++
	transientEnd := at(i)
	// Now a real distress episode: starts binding, continues after the
	// receivers retreat (TopLevel below budget but the loss echo persists).
	r.export(at(i), SessionSummary{Session: 0, MaxLoss: 0.5, MeanLoss: 0.4, TopLevel: ceiling})
	i++
	r.export(at(i), SessionSummary{Session: 0, MaxLoss: 0.7, MeanLoss: 0.4, TopLevel: 1})
	i++
	episodeEnd := at(i)
	// Clean binding exports afterwards: must not climb past the learned ceiling.
	for j := 0; j < 6; j++ {
		r.export(at(i), SessionSummary{Session: 0, TopLevel: 6})
		i++
	}

	r.e.RunUntil(transientEnd)
	if got := r.parent.Budget(1, 0); got != ceiling {
		t.Fatalf("budget %d after a single lossy export, want %d (no cut on one sample)", got, ceiling)
	}
	if got := r.parent.Learned(1); got != ceiling {
		t.Fatalf("learned ceiling %d after a transient, want %d", got, ceiling)
	}

	r.e.RunUntil(episodeEnd + sim.Second)
	if got := r.parent.Budget(1, 0); got != ceiling-1 {
		t.Fatalf("budget %d after a sustained distress episode, want %d", got, ceiling-1)
	}
	if got := r.parent.Learned(1); got != ceiling-1 {
		t.Fatalf("learned ceiling %d after the cut, want %d", got, ceiling-1)
	}

	r.e.RunUntil(at(i) + sim.Second)
	if got := r.parent.Budget(1, 0); got != ceiling-1 {
		t.Errorf("budget re-climbed to %d past the learned ceiling %d", got, ceiling-1)
	}
}

// TestDrainedDomainHoldsBudget: a domain whose receivers all depart
// (Receivers == 0, Departures > 0 in the export) holds its earned budget —
// even when the drain lands mid-distress-episode and the loss echo would
// otherwise complete a cut — so rejoining receivers resume at the earned
// level. A session only ever seen drained gets no initial grant.
func TestDrainedDomainHoldsBudget(t *testing.T) {
	r := newParentRig(t, source.Rates(6))
	r.parent.AddDomain(DomainConfig{Domain: 1, Leaf: r.b.ID, BorderBandwidth: 600e3})
	ceiling := r.parent.Ceiling(1)
	r.parent.Start()

	at := func(i int) sim.Time { return sim.Time(i)*sim.Second + 100*sim.Millisecond }
	i := 0
	// Climb to the ceiling.
	for ; i < 2*ceiling+2; i++ {
		r.export(at(i), SessionSummary{Session: 0, Receivers: 3, TopLevel: 6})
	}
	// A distress episode opens (one lossy binding export; CutAfter is 2, so
	// no cut yet) — and then every receiver departs. The drained export still
	// echoes the loss, which without the departure gate would keep the
	// episode open and complete the cut.
	r.export(at(i), SessionSummary{Session: 0, Receivers: 3, MaxLoss: 0.6, MeanLoss: 0.3, TopLevel: ceiling})
	i++
	for j := 0; j < 3; j++ {
		r.export(at(i), SessionSummary{Session: 0, Receivers: 0, Departures: 3, MaxLoss: 0.6, MeanLoss: 0.3})
		i++
	}
	drainEnd := at(i)
	// A session this domain has only ever exported drained.
	r.export(at(i), SessionSummary{Session: 1, Receivers: 0, Departures: 2})
	i++
	// Receivers rejoin clean: the domain resumes at the earned budget.
	for j := 0; j < 4; j++ {
		r.export(at(i), SessionSummary{Session: 0, Receivers: 3, TopLevel: 6})
		i++
	}

	r.e.RunUntil(drainEnd)
	if got := r.parent.Budget(1, 0); got != ceiling {
		t.Fatalf("drained domain's budget = %d, want the earned %d (hold, not cut)", got, ceiling)
	}
	if got := r.parent.Learned(1); got != ceiling {
		t.Fatalf("drain ratcheted the learned ceiling to %d, want %d untouched", got, ceiling)
	}

	r.e.RunUntil(at(i) + sim.Second)
	if got := r.parent.Budget(1, 0); got != ceiling {
		t.Errorf("budget after the receivers rejoined = %d, want %d", got, ceiling)
	}
	if got := r.parent.Budget(1, 1); got != 0 {
		t.Errorf("session only ever seen drained was granted budget %d, want none", got)
	}
}

// TestUnknownDomainDropped: exports from an unregistered domain are ignored,
// not acted on.
func TestUnknownDomainDropped(t *testing.T) {
	r := newParentRig(t, source.Rates(6))
	r.parent.AddDomain(DomainConfig{Domain: 1, Leaf: r.b.ID})
	r.parent.Start()

	r.e.At(100*sim.Millisecond, func() {
		exp := &DomainExport{Domain: 42, Leaf: r.b.ID, Pass: 1, Sent: r.e.Now(),
			Sessions: []SessionSummary{{Session: 0, TopLevel: 6}}}
		r.b.SendUnicast(report.NewControlPacket(r.b.ID, r.a.ID, exp.WireSize(), r.e.Now(), exp))
	})
	r.e.RunUntil(3 * sim.Second)

	if r.parent.ExportsRecv != 0 {
		t.Errorf("unregistered domain's export counted: ExportsRecv = %d", r.parent.ExportsRecv)
	}
	if r.parent.BudgetChanges != 0 {
		t.Errorf("unregistered domain changed budgets: %d", r.parent.BudgetChanges)
	}
	if len(r.updates) != 0 {
		t.Errorf("parent pushed %d updates for an unregistered domain", len(r.updates))
	}
}
