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
// subtree toward the controller: one exact entry per receiver, and nothing
// else — any subtree-wide figure is a reduction over the entries.
//
// Aggregates are pooled: producers call NewAggregate, consumers Release. An
// Aggregate is readable until Release and not after: Release hands its entry
// array back to the class pool (pool.go), and in test binaries leaves junk
// behind for any reader that comes late.
type Aggregate struct {
	Session int
	Origin  netsim.NodeID // tree node whose flush produced this aggregate
	Sent    sim.Time      // when the origin emitted it

	// Entries holds one exact record per receiver, sorted by Node. Its array
	// comes from the class pool sized for what it holds: a leaf's aggregate
	// holds a leaf's worth, whatever the struct carried last time.
	Entries []AggEntry
}

// The struct pools are free lists, not sync.Pools: a sync.Pool may drop
// what it holds (at a collection, and at random under the race detector).
// A pooled struct holds no array; the entry arrays live in their own class
// pools.
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

// NewAggregate takes an empty Aggregate from the pool.
func NewAggregate(session int, origin netsim.NodeID) *Aggregate {
	a := aggPool.Get()
	atomic.AddInt64(&aggLive, 1)
	*a = Aggregate{Session: session, Origin: origin}
	return a
}

// Release returns the aggregate and its entry array to their pools. The
// caller must be the last holder and reads nothing after.
func (a *Aggregate) Release() {
	atomic.AddInt64(&aggLive, -1)
	a.Entries = aggArrays.Release(a.Entries)
	if sim.Poison {
		a.Session, a.Origin, a.Sent = junkNode, junkNode, junkNode
	}
	aggPool.Put(a)
}

// Receivers returns the number of distinct receivers folded in.
func (a *Aggregate) Receivers() int { return len(a.Entries) }

// WireSize returns the modeled wire cost in bytes.
func (a *Aggregate) WireSize() int {
	return AggregateBaseSize + len(a.Entries)*AggregateEntrySize
}

func (a *Aggregate) String() string {
	return fmt.Sprintf("aggregate s=%d origin=%d rx=%d", a.Session, a.Origin, len(a.Entries))
}

// entry returns the record for node, inserting one in sorted position if
// missing. Binary search + shifted insert: entry counts are bounded by the
// subtree's receiver population, and a full array is swapped for one of the
// next class from the pool, so the steady state allocates nothing.
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
	a.Entries = append(aggArrays.Grow(a.Entries, len(a.Entries)+1), AggEntry{})
	copy(a.Entries[lo+1:], a.Entries[lo:])
	a.Entries[lo] = AggEntry{Node: node}
	return &a.Entries[lo]
}

// RemoveEntry drops node's folded record and reports whether the node was
// present. It only runs on the departure path (a receiver that deregistered
// mid-flush).
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
	a.Entries = append(a.Entries[:lo], a.Entries[lo+1:]...)
	return true
}

// Fold absorbs one receiver's LossReport.
func (a *Aggregate) Fold(r LossReport) {
	e := a.entry(r.Node)
	e.Level = r.Level
	e.Reports++
	e.LossSum += r.LossRate
	e.Bytes += r.Bytes
}

// Merge absorbs a child subtree's aggregate into a. Every entry field but
// Level is a sum, so Merge is associative, and over disjoint receiver sets —
// the only case a tree produces, since a receiver reports up exactly one
// path — commutative as well. When the same node does appear on both sides
// its sums combine and b's Level wins (b is the later arrival under in-order
// delivery), which keeps Merge associative even then.
func (a *Aggregate) Merge(b *Aggregate) {
	n, m := len(a.Entries), len(b.Entries)
	if m == 0 {
		return
	}
	if n == 0 {
		a.Entries = append(aggArrays.Grow(a.Entries, m), b.Entries...)
		return
	}
	// Size the merged slice exactly (two-pointer duplicate count), take the
	// class for that size at once, then merge from the back so nothing is
	// overwritten before it is read.
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
	a.Entries = aggArrays.Grow(a.Entries, total)[:total]
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
// pooled like Aggregates: readable until Release, entries in a class-pool
// array.
type SuggestionBatch struct {
	Sent    sim.Time
	Entries []SugEntry
}

var batchPool sim.FreeList[SuggestionBatch]

// NewSuggestionBatch takes an empty batch from the pool.
func NewSuggestionBatch() *SuggestionBatch {
	b := batchPool.Get()
	atomic.AddInt64(&batchLive, 1)
	*b = SuggestionBatch{}
	return b
}

// Release returns the batch and its entry array to their pools; the caller
// reads nothing after.
func (b *SuggestionBatch) Release() {
	atomic.AddInt64(&batchLive, -1)
	b.Entries = sugArrays.Release(b.Entries)
	if sim.Poison {
		b.Sent = junkNode
	}
	batchPool.Put(b)
}

// Add appends one prescription.
func (b *SuggestionBatch) Add(node netsim.NodeID, session, level int) {
	b.Entries = append(sugArrays.Grow(b.Entries, len(b.Entries)+1), SugEntry{Node: node, Session: session, Level: level})
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

// Splitter is the downward fan-out of suggestion entries, shared by the
// controller (its pass's list) and every aggregating hop (an arriving
// batch): one pooled SuggestionBatch per next hop. Its zero value is ready;
// it keeps its group scratch between calls, so a warm one allocates nothing,
// and grows it through hopArrays.
type Splitter struct {
	groups []hopBatch
}

// hopBatch is one outgoing sub-batch: the entries routed through next.
type hopBatch struct {
	next  netsim.NodeID
	batch *SuggestionBatch
}

// Split sends entries from node from as one pooled SuggestionBatch per next
// hop, each stamped sent, on packets created at now. Groups form in the
// order their first entry appears and keep entry order. An entry for from
// itself (a receiver on the sending node reads its own) and an unroutable
// one, as its unicast would be, are skipped. It returns how many entries it
// routed and how many packets it sent.
func (s *Splitter) Split(net *netsim.Network, from netsim.NodeID, entries []SugEntry, sent, now sim.Time) (routed, packets int) {
	groups := s.groups[:0]
	for _, e := range entries {
		if e.Node == from {
			continue
		}
		next := net.NextHop(from, e.Node)
		if next == netsim.NoNode {
			continue
		}
		var g *hopBatch
		for j := range groups {
			if groups[j].next == next {
				g = &groups[j]
				break
			}
		}
		if g == nil {
			groups = append(hopArrays.Grow(groups, len(groups)+1), hopBatch{next: next, batch: NewSuggestionBatch()})
			g = &groups[len(groups)-1]
			g.batch.Sent = sent
		}
		g.batch.Add(e.Node, e.Session, e.Level)
		routed++
	}
	node := net.Node(from)
	for i := range groups {
		g := &groups[i]
		pkt := NewPooledPacket(net, from, g.next, g.batch.WireSize(), now)
		pkt.Payload = g.batch
		node.SendUnicast(pkt)
		pkt.Release()
		g.batch = nil
	}
	s.groups = groups
	return routed, len(groups)
}
