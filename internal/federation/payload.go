// Package federation implements the hierarchical control plane — a
// controller of controllers. The paper's architecture (Section II, Figure 3)
// stations one TopoSense controller per domain; this package adds the tier
// above: every leaf controller exports a compact per-domain congestion
// summary after each decision pass, and a parent controller runs a
// declarative reconcile loop over those exports — desired state (per-domain
// session-level budgets bounded by each domain's share of its border-link
// bandwidth) against observed state (the summaries) — pushing budget updates
// down only when the two diverge. Leaf controllers enforce a budget as a
// hard cap on the levels the core algorithm may suggest.
//
// Determinism contract: every reconcile decision reads only simulated state
// (exports that arrived as simulated packets, budgets, configured shares),
// and nothing in the package reads a host clock. Identical seeds produce
// identical budget sequences on the serial and sharded engines alike,
// because exports are consumed in node context and the reconcile pass runs
// as a stop-the-world global event, exactly like a leaf controller's
// decision pass.
package federation

import (
	"fmt"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// Modeled wire sizes of the federation control payloads, in bytes. Like the
// report payload constants, the Go values carried are exact — Size is the
// modeled cost on the wire. An export is a fixed header plus one packed
// summary record per session; a budget update is a header plus a packed
// (session, level) pair per entry. Neither scales with the domain's receiver
// population — that is the point of the hierarchy.
const (
	ExportBaseSize    = 32
	ExportSessionSize = 40
	BudgetBaseSize    = 24
	BudgetEntrySize   = 6
)

// SessionSummary is one session's congestion digest inside a DomainExport,
// reduced by the leaf from its pass's receiver states. The parent reads
// nothing finer — per-receiver states never leave a domain.
type SessionSummary struct {
	Session   int
	Receivers int     // receivers with a state this pass
	MeanLoss  float64 // mean of their loss rates
	MaxLoss   float64 // worst single loss rate
	TopLevel  int     // highest level any receiver reported
	// Departures is how many receivers deregistered from this session since
	// the previous pass. A summary with Receivers == 0 and Departures > 0 is
	// a drained session: the parent must hold its budget rather than treat
	// the silence as evidence. The count packs into the summary record's
	// existing padding, so ExportSessionSize is unchanged.
	Departures int
}

// DomainExport is the upward half of the federation protocol: one leaf
// controller's observed state after one decision pass. Pass numbers are the
// reconcile loop's freshness token — the parent adjusts a domain's budgets
// at most once per export, so a silent domain's budgets hold steady instead
// of drifting on stale evidence.
type DomainExport struct {
	Domain   int
	Leaf     netsim.NodeID // node the exporting leaf controller runs on
	Pass     int64         // leaf pass counter, strictly increasing
	Sent     sim.Time
	Sessions []SessionSummary // sorted by Session
}

// WireSize returns the modeled wire cost in bytes.
func (e *DomainExport) WireSize() int {
	return ExportBaseSize + len(e.Sessions)*ExportSessionSize
}

func (e *DomainExport) String() string {
	return fmt.Sprintf("domain-export d=%d leaf=%d pass=%d sessions=%d",
		e.Domain, e.Leaf, e.Pass, len(e.Sessions))
}

// SessionBudget grants one session a maximum subscription level inside one
// domain.
type SessionBudget struct {
	Session  int
	MaxLevel int
}

// BudgetUpdate is the downward half: the parent's desired state for one
// domain, carrying only the budgets that changed this reconcile pass. The
// leaf applies each entry as a level cap on its controller.
type BudgetUpdate struct {
	Domain  int
	Sent    sim.Time
	Budgets []SessionBudget // sorted by Session
}

// WireSize returns the modeled wire cost in bytes.
func (b *BudgetUpdate) WireSize() int {
	return BudgetBaseSize + len(b.Budgets)*BudgetEntrySize
}

func (b *BudgetUpdate) String() string {
	return fmt.Sprintf("budget-update d=%d entries=%d", b.Domain, len(b.Budgets))
}
