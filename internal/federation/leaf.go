package federation

import (
	"toposense/internal/controller"
	"toposense/internal/core"
	"toposense/internal/netsim"
	"toposense/internal/report"
	"toposense/internal/sim"
)

// Leaf adapts one domain's controller to the hierarchical control plane. It
// hooks the controller's pass observer to export a DomainExport after every
// decision pass — reducing the pass's receiver states to one SessionSummary
// per session — and consumes BudgetUpdate packets from the parent, applying
// each granted budget as a level cap on the controller.
//
// The leaf is a second agent on the controller's node: exports and budget
// updates travel as ordinary unicast control packets across the simulated
// network, crossing (and competing on) the same links as the media.
type Leaf struct {
	Domain int

	node   *netsim.Node
	ctrl   *controller.Controller
	parent netsim.NodeID
	pass   int64

	// Stats.
	ExportsSent int64
	CapsApplied int64 // level caps installed (SetLevelCap calls)
}

// NewLeaf wires a leaf onto ctrl, exporting to the parent controller's node.
// It claims the controller's OnStep hook; install any other observer on the
// Leaf's own OnStep instead.
func NewLeaf(ctrl *controller.Controller, domain int, parent netsim.NodeID) *Leaf {
	l := &Leaf{Domain: domain, node: ctrl.Node(), ctrl: ctrl, parent: parent}
	ctrl.OnStep = l.export
	l.node.AttachAgent(l)
	return l
}

// Controller returns the wrapped domain controller.
func (l *Leaf) Controller() *controller.Controller { return l.ctrl }

// export builds and sends the domain summary for one completed pass. The
// input slice is sorted session-major, so each session's run reduces to one
// summary in a single loop. The controller keeps one slot per (session,
// receiver), so a run holds one state per receiver and its length is the
// receiver count.
func (l *Leaf) export(now sim.Time, in core.Input, out []core.Suggestion) {
	l.pass++
	exp := &DomainExport{Domain: l.Domain, Leaf: l.node.ID, Pass: l.pass, Sent: now}
	// Sessions whose receivers departed this pass must appear in the export
	// even when no live receiver reported — otherwise the parent sees a
	// drained session simply vanish and counts its last summary's ghosts
	// until the next pass. departed is sorted and in.Reports is
	// session-major, so the two merge in order; nil (the churn-free case)
	// costs nothing.
	departed := l.ctrl.DepartedSessions()
	di := 0
	drain := func(before int, all bool) {
		for di < len(departed) && (all || departed[di] < before) {
			s := departed[di]
			exp.Sessions = append(exp.Sessions, SessionSummary{
				Session:    s,
				Departures: l.ctrl.PassDepartures(s),
			})
			di++
		}
	}
	for i := 0; i < len(in.Reports); {
		s := in.Reports[i].Session
		drain(s, false)
		sum := SessionSummary{Session: s, MaxLoss: in.Reports[i].LossRate}
		var lossSum float64
		for ; i < len(in.Reports) && in.Reports[i].Session == s; i++ {
			st := &in.Reports[i]
			sum.Receivers++
			lossSum += st.LossRate
			sum.MaxLoss = max(sum.MaxLoss, st.LossRate)
			sum.TopLevel = max(sum.TopLevel, st.Level)
		}
		sum.MeanLoss = lossSum / float64(sum.Receivers)
		sum.Departures = l.ctrl.PassDepartures(s)
		exp.Sessions = append(exp.Sessions, sum)
		if di < len(departed) && departed[di] == s {
			di++ // folded into the live summary above
		}
	}
	drain(0, true)
	pkt := report.NewControlPacket(l.node.ID, l.parent, exp.WireSize(), now, exp)
	l.node.SendUnicast(pkt)
	l.ExportsSent++
}

// Recv implements netsim.Agent: apply budget updates from the parent. Every
// other payload addressed to this node belongs to the co-resident controller
// agent and is ignored here.
func (l *Leaf) Recv(p *netsim.Packet) {
	bu, ok := p.Payload.(*BudgetUpdate)
	if !ok || bu.Domain != l.Domain {
		return
	}
	for _, b := range bu.Budgets {
		l.ctrl.SetLevelCap(b.Session, b.MaxLevel)
		l.CapsApplied++
	}
}
