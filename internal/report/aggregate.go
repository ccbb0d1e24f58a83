package report

import (
	"fmt"
	"sync/atomic"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// Wire sizes of the aggregated control payloads, in bytes. An Aggregate
// models a fixed header plus a packed per-receiver record (node id, level,
// loss, byte delta — deltas compress far below a full LossReport); a
// SuggestionBatch models a header plus a packed (node, level) pair per
// receiver. The payloads still carry exact Go values — Size is the modeled
// wire cost, like the flat-report constants above.
const (
	AggregateBaseSize  = 64
	AggregateEntrySize = 8
	BatchBaseSize      = 32
	BatchEntrySize     = 6
)

// MaxAggLevel caps the per-level histogram carried by an Aggregate; levels
// above it are clamped into the top slot. Sessions run far fewer layers in
// practice (the paper uses 6).
const MaxAggLevel = 15

// AggEntry is one receiver's folded feedback inside an Aggregate. The fields
// are sums over the folded reports, so folding N reports into an entry and
// consuming the entry is arithmetically identical to consuming the N reports
// one by one: mean loss is LossSum/Reports, exactly the controller's
// accumulator math.
type AggEntry struct {
	Node    netsim.NodeID
	Level   int // level of the most recent folded report
	Reports int32
	LossSum float64
	Bytes   int64
}

// Aggregate is the in-network merge of many LossReports flowing up one
// subtree toward the controller: per-receiver exact entries plus the compact
// subtree summary (receiver count, per-level loss histogram, max/mean loss,
// byte totals, worst-receiver pointer) the hierarchical control plane reads
// without touching entries at all.
//
// Aggregates are pooled: producers call NewAggregate, consumers Release.
// A released Aggregate stays readable until the pool reuses it (reset
// happens at Get, not at Put), so a consumer may Release inside the
// delivery callback and finish reading afterwards.
type Aggregate struct {
	Session  int
	Origin   netsim.NodeID // tree node whose flush produced this aggregate
	Interval sim.Time      // flush interval the aggregate covers
	Sent     sim.Time      // when the origin emitted it

	// Subtree summary, maintained incrementally by Fold/Merge.
	ReportCount int64         // loss reports represented
	ByteTotal   int64         // sum of reported byte counts
	LossTotal   float64       // sum of reported loss rates (mean = LossTotal/ReportCount)
	MaxLoss     float64       // worst single reported loss rate
	Worst       netsim.NodeID // receiver that reported MaxLoss (NoNode when empty)
	// Per-level loss histogram over folded reports: LevelReports[l] reports
	// arrived at (clamped) level l, summing LevelLoss[l] loss rate.
	LevelReports [MaxAggLevel + 1]int32
	LevelLoss    [MaxAggLevel + 1]float64

	// Entries holds one exact record per receiver, sorted by Node.
	Entries []AggEntry
}

// The pools are free lists, not sync.Pools: a sync.Pool may drop what it
// holds (at a collection, and at random under the race detector), and a
// payload made afresh regrows its entries.
var aggPool sim.FreeList[Aggregate]

// Pool balance accounting: every New* bumps the live count, every Release
// drops it, so a test can assert that a run returned every payload it took
// — the contract a deferred-release holder (mcast.Aggregator's lastBatch) is
// easiest to break. A payload whose packet the network drops is released
// there (netsim), so live returns to its baseline once a run has drained.
var aggLive, batchLive int64

// AggregatesLive returns how many pooled Aggregates are currently checked
// out (NewAggregate calls minus Release calls) across the process.
func AggregatesLive() int64 { return atomic.LoadInt64(&aggLive) }

// BatchesLive returns how many pooled SuggestionBatches are currently
// checked out (NewSuggestionBatch calls minus Release calls).
func BatchesLive() int64 { return atomic.LoadInt64(&batchLive) }

// NewAggregate takes a reset Aggregate from the pool.
func NewAggregate(session int, origin netsim.NodeID) *Aggregate {
	a := aggPool.Get()
	atomic.AddInt64(&aggLive, 1)
	a.Reset()
	a.Session = session
	a.Origin = origin
	return a
}

// Release returns the aggregate to the pool. The caller must be the last
// holder; the contents stay readable only until the pool hands it out again.
func (a *Aggregate) Release() {
	atomic.AddInt64(&aggLive, -1)
	aggPool.Put(a)
}

// Reset clears the aggregate, keeping the entry slice's capacity.
func (a *Aggregate) Reset() {
	entries := a.Entries[:0]
	*a = Aggregate{Entries: entries, Worst: netsim.NoNode}
}

// Receivers returns the number of distinct receivers folded in.
func (a *Aggregate) Receivers() int { return len(a.Entries) }

// MeanLoss returns the mean reported loss rate (0 when empty).
func (a *Aggregate) MeanLoss() float64 {
	if a.ReportCount == 0 {
		return 0
	}
	return a.LossTotal / float64(a.ReportCount)
}

// WireSize returns the modeled wire cost in bytes.
func (a *Aggregate) WireSize() int {
	return AggregateBaseSize + len(a.Entries)*AggregateEntrySize
}

func (a *Aggregate) String() string {
	return fmt.Sprintf("aggregate s=%d origin=%d rx=%d reports=%d meanloss=%.3f maxloss=%.3f@%d",
		a.Session, a.Origin, len(a.Entries), a.ReportCount, a.MeanLoss(), a.MaxLoss, a.Worst)
}

// clampLevel folds out-of-range levels into the histogram's edge slots.
func clampLevel(l int) int {
	if l < 0 {
		return 0
	}
	if l > MaxAggLevel {
		return MaxAggLevel
	}
	return l
}

// noteLoss updates the worst-receiver pointer. Strictly higher loss wins;
// ties break toward the lower node ID, which keeps the choice independent of
// fold/merge order.
func (a *Aggregate) noteLoss(rate float64, node netsim.NodeID) {
	if a.Worst == netsim.NoNode || rate > a.MaxLoss || (rate == a.MaxLoss && node < a.Worst) {
		a.MaxLoss = rate
		a.Worst = node
	}
}

// entry returns the record for node, inserting one in sorted position if
// missing. Binary search + shifted insert: entry counts are bounded by the
// subtree's receiver population, and the slice's capacity is reused across
// pool cycles, so the steady state allocates nothing.
func (a *Aggregate) entry(node netsim.NodeID) *AggEntry {
	lo, hi := 0, len(a.Entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.Entries[mid].Node < node {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a.Entries) && a.Entries[lo].Node == node {
		return &a.Entries[lo]
	}
	a.Entries = append(a.Entries, AggEntry{})
	copy(a.Entries[lo+1:], a.Entries[lo:])
	a.Entries[lo] = AggEntry{Node: node}
	return &a.Entries[lo]
}

// RemoveEntry drops node's folded record, debiting every summary field it
// contributed to, and reports whether the node was present. When the removed
// node was the worst receiver, the pointer is recomputed from the survivors
// using each entry's mean loss — exact for single-report entries and a
// conservative stand-in otherwise. RemoveEntry only runs on the departure
// path (a receiver that deregistered mid-flush), so it carries no
// fold-order-equivalence contract the way Fold/Merge do.
func (a *Aggregate) RemoveEntry(node netsim.NodeID) bool {
	lo, hi := 0, len(a.Entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.Entries[mid].Node < node {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(a.Entries) || a.Entries[lo].Node != node {
		return false
	}
	e := a.Entries[lo]
	a.ReportCount -= int64(e.Reports)
	a.ByteTotal -= e.Bytes
	a.LossTotal -= e.LossSum
	l := clampLevel(e.Level)
	if a.LevelReports[l] -= e.Reports; a.LevelReports[l] < 0 {
		// Level can drift across folds (the histogram buckets by each
		// report's level, the entry keeps only the latest); clamp rather
		// than exporting a negative count.
		a.LevelReports[l] = 0
	}
	if a.LevelLoss[l] -= e.LossSum; a.LevelLoss[l] < 0 {
		a.LevelLoss[l] = 0
	}
	a.Entries = append(a.Entries[:lo], a.Entries[lo+1:]...)
	if a.Worst == node {
		a.MaxLoss = 0
		a.Worst = netsim.NoNode
		for i := range a.Entries {
			s := &a.Entries[i]
			if s.Reports > 0 {
				a.noteLoss(s.LossSum/float64(s.Reports), s.Node)
			}
		}
	}
	return true
}

// Fold absorbs one receiver's LossReport.
func (a *Aggregate) Fold(r LossReport) {
	e := a.entry(r.Node)
	e.Level = r.Level
	e.Reports++
	e.LossSum += r.LossRate
	e.Bytes += r.Bytes

	a.ReportCount++
	a.ByteTotal += r.Bytes
	a.LossTotal += r.LossRate
	l := clampLevel(r.Level)
	a.LevelReports[l]++
	a.LevelLoss[l] += r.LossRate
	a.noteLoss(r.LossRate, r.Node)
}

// Merge absorbs a child subtree's aggregate into a. All summary fields are
// sums (or order-independent maxima), so Merge is associative, and over
// disjoint receiver sets — the only case a tree produces, since a receiver
// reports up exactly one path — commutative as well. When the same node does
// appear on both sides its sums combine and b's Level wins (b is the later
// arrival under in-order delivery), which keeps Merge associative even then.
func (a *Aggregate) Merge(b *Aggregate) {
	a.ReportCount += b.ReportCount
	a.ByteTotal += b.ByteTotal
	a.LossTotal += b.LossTotal
	for i := range b.LevelReports {
		a.LevelReports[i] += b.LevelReports[i]
		a.LevelLoss[i] += b.LevelLoss[i]
	}
	if b.Worst != netsim.NoNode {
		a.noteLoss(b.MaxLoss, b.Worst)
	}

	n, m := len(a.Entries), len(b.Entries)
	if m == 0 {
		return
	}
	if n == 0 {
		a.Entries = append(a.Entries, b.Entries...)
		return
	}
	// Size the merged slice exactly (two-pointer duplicate count), then
	// merge from the back so nothing is overwritten before it is read.
	dups := 0
	for i, j := 0, 0; i < n && j < m; {
		switch {
		case a.Entries[i].Node == b.Entries[j].Node:
			dups++
			i++
			j++
		case a.Entries[i].Node < b.Entries[j].Node:
			i++
		default:
			j++
		}
	}
	total := n + m - dups
	for len(a.Entries) < total {
		a.Entries = append(a.Entries, AggEntry{})
	}
	i, j, k := n-1, m-1, total-1
	for j >= 0 {
		switch {
		case i >= 0 && a.Entries[i].Node > b.Entries[j].Node:
			a.Entries[k] = a.Entries[i]
			i--
		case i >= 0 && a.Entries[i].Node == b.Entries[j].Node:
			e := a.Entries[i]
			be := b.Entries[j]
			e.Level = be.Level
			e.Reports += be.Reports
			e.LossSum += be.LossSum
			e.Bytes += be.Bytes
			a.Entries[k] = e
			i--
			j--
		default:
			a.Entries[k] = b.Entries[j]
			j--
		}
		k--
	}
}

// SugEntry is one receiver's prescription inside a SuggestionBatch.
type SugEntry struct {
	Node    netsim.NodeID
	Session int
	Level   int
}

// SuggestionBatch carries the controller's prescriptions for every receiver
// reached through one next hop, replacing per-receiver Suggestion unicasts.
// Interior nodes split it per next hop as it travels down the tree;
// receivers on a batch's stop read their own entry with Find. Batches are
// pooled like Aggregates: reset at Get, readable until reuse after Release.
type SuggestionBatch struct {
	Sent    sim.Time
	Entries []SugEntry
}

var batchPool sim.FreeList[SuggestionBatch]

// NewSuggestionBatch takes an empty batch from the pool.
func NewSuggestionBatch() *SuggestionBatch {
	b := batchPool.Get()
	atomic.AddInt64(&batchLive, 1)
	b.Sent = 0
	b.Entries = b.Entries[:0]
	return b
}

// Release returns the batch to the pool.
func (b *SuggestionBatch) Release() {
	atomic.AddInt64(&batchLive, -1)
	batchPool.Put(b)
}

// Add appends one prescription.
func (b *SuggestionBatch) Add(node netsim.NodeID, session, level int) {
	b.Entries = append(b.Entries, SugEntry{Node: node, Session: session, Level: level})
}

// Find returns the prescribed level for (node, session). Linear scan: by the
// last hop a batch holds only the receivers behind that hop.
func (b *SuggestionBatch) Find(node netsim.NodeID, session int) (level int, ok bool) {
	for i := range b.Entries {
		if b.Entries[i].Node == node && b.Entries[i].Session == session {
			return b.Entries[i].Level, true
		}
	}
	return 0, false
}

// WireSize returns the modeled wire cost in bytes.
func (b *SuggestionBatch) WireSize() int {
	return BatchBaseSize + len(b.Entries)*BatchEntrySize
}

func (b *SuggestionBatch) String() string {
	return fmt.Sprintf("suggestion-batch n=%d", len(b.Entries))
}
