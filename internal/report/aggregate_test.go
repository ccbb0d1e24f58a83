package report

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// aggCanonical renders everything Fold/Merge maintain, for byte comparison
// in the algebra tests.
func aggCanonical(a *Aggregate) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "s=%d\n", a.Session)
	for _, e := range a.Entries {
		fmt.Fprintf(&sb, "entry %d: lvl=%d n=%d loss=%.9f bytes=%d\n",
			e.Node, e.Level, e.Reports, e.LossSum, e.Bytes)
	}
	return sb.String()
}

func randReports(rng *rand.Rand, nodes []netsim.NodeID, n int) []LossReport {
	var rs []LossReport
	for i := 0; i < n; i++ {
		rs = append(rs, LossReport{
			Node:     nodes[rng.Intn(len(nodes))],
			Session:  1,
			Level:    rng.Intn(8),
			LossRate: float64(rng.Intn(1000)) / 1000, // exact in binary-friendly steps
			Bytes:    int64(rng.Intn(100_000)),
			Interval: 500 * sim.Millisecond,
		})
	}
	return rs
}

func foldAll(rs []LossReport) *Aggregate {
	a := NewAggregate(1, 50)
	for _, r := range rs {
		a.Fold(r)
	}
	return a
}

func TestAggregateFoldSummary(t *testing.T) {
	a := NewAggregate(2, 9)
	defer a.Release()
	a.Fold(LossReport{Node: 4, Session: 2, Level: 3, LossRate: 0.25, Bytes: 1000})
	a.Fold(LossReport{Node: 4, Session: 2, Level: 4, LossRate: 0.75, Bytes: 2000})
	a.Fold(LossReport{Node: 2, Session: 2, Level: 1, LossRate: 0.75, Bytes: 500})

	if a.Receivers() != 2 {
		t.Fatalf("receivers=%d, want 2", a.Receivers())
	}
	// Entries sorted by node, later report's level winning.
	if a.Entries[0].Node != 2 || a.Entries[1].Node != 4 {
		t.Errorf("entries unsorted: %+v", a.Entries)
	}
	if e := a.Entries[0]; e.Level != 1 || e.Reports != 1 || e.LossSum != 0.75 || e.Bytes != 500 {
		t.Errorf("node 2 entry: %+v", e)
	}
	if e := a.Entries[1]; e.Level != 4 || e.Reports != 2 || e.LossSum != 1.0 || e.Bytes != 3000 {
		t.Errorf("node 4 entry: %+v", e)
	}
}

// TestAggregateMeanLossEmpty: a fresh aggregate holds no receivers and costs
// only its header on the wire.
func TestAggregateMeanLossEmpty(t *testing.T) {
	a := NewAggregate(0, 1)
	defer a.Release()
	if a.Receivers() != 0 {
		t.Errorf("Receivers on empty = %d", a.Receivers())
	}
	if a.WireSize() != AggregateBaseSize {
		t.Errorf("WireSize on empty = %d, want %d", a.WireSize(), AggregateBaseSize)
	}
}

// TestMergeFoldEquivalence: merging subtree aggregates must be
// arithmetically identical to folding every underlying report into one
// aggregate — the property the controller's decision equivalence rests on.
func TestMergeFoldEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nodes := []netsim.NodeID{3, 5, 8, 13, 21, 34}
	for trial := 0; trial < 50; trial++ {
		rs := randReports(rng, nodes, 1+rng.Intn(40))
		whole := foldAll(rs)
		// Split contiguously: each receiver's reports keep their order, as
		// in-order delivery up one tree path guarantees.
		cut := rng.Intn(len(rs) + 1)
		left, right := foldAll(rs[:cut]), foldAll(rs[cut:])
		left.Merge(right)
		if got, want := aggCanonical(left), aggCanonical(whole); got != want {
			t.Fatalf("trial %d: merge != fold\nmerge:\n%s\nfold:\n%s", trial, got, want)
		}
		whole.Release()
		left.Release()
		right.Release()
	}
}

// TestMergeAssociative: (a+b)+c == a+(b+c), including when the same receiver
// appears on multiple sides.
func TestMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nodes := []netsim.NodeID{2, 4, 6, 8}
	for trial := 0; trial < 50; trial++ {
		parts := [3][]LossReport{
			randReports(rng, nodes, rng.Intn(15)),
			randReports(rng, nodes, rng.Intn(15)),
			randReports(rng, nodes, rng.Intn(15)),
		}
		// (a+b)+c
		ab := foldAll(parts[0])
		b1 := foldAll(parts[1])
		ab.Merge(b1)
		c1 := foldAll(parts[2])
		ab.Merge(c1)
		// a+(b+c)
		bc := foldAll(parts[1])
		c2 := foldAll(parts[2])
		bc.Merge(c2)
		a2 := foldAll(parts[0])
		a2.Merge(bc)
		if got, want := aggCanonical(ab), aggCanonical(a2); got != want {
			t.Fatalf("trial %d: association order changed the result\n(a+b)+c:\n%s\na+(b+c):\n%s",
				trial, got, want)
		}
		for _, x := range []*Aggregate{ab, b1, c1, bc, c2, a2} {
			x.Release()
		}
	}
}

// TestMergeCommutativeDisjoint: over disjoint receiver sets — the only case
// a tree produces — a+b == b+a.
func TestMergeCommutativeDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		ra := randReports(rng, []netsim.NodeID{1, 3, 5}, 1+rng.Intn(20))
		rb := randReports(rng, []netsim.NodeID{2, 4, 6}, 1+rng.Intn(20))
		ab, b1 := foldAll(ra), foldAll(rb)
		ab.Merge(b1)
		ba, a1 := foldAll(rb), foldAll(ra)
		ba.Merge(a1)
		if got, want := aggCanonical(ab), aggCanonical(ba); got != want {
			t.Fatalf("trial %d: a+b != b+a on disjoint sets\na+b:\n%s\nb+a:\n%s", trial, got, want)
		}
		for _, x := range []*Aggregate{ab, b1, ba, a1} {
			x.Release()
		}
	}
}

func TestMergeDuplicateNodeLevel(t *testing.T) {
	a := NewAggregate(0, 1)
	b := NewAggregate(0, 2)
	a.Fold(LossReport{Node: 5, Level: 2, LossRate: 0.1, Bytes: 100})
	b.Fold(LossReport{Node: 5, Level: 6, LossRate: 0.3, Bytes: 200})
	a.Merge(b)
	if len(a.Entries) != 1 {
		t.Fatalf("want 1 merged entry, got %d", len(a.Entries))
	}
	e := a.Entries[0]
	// Sums combine; the right operand's level wins (the later arrival).
	if e.Level != 6 || e.Reports != 2 || e.LossSum != 0.4 || e.Bytes != 300 {
		t.Errorf("merged entry: %+v", e)
	}
	a.Release()
	b.Release()
}

func TestAggregateWireSize(t *testing.T) {
	a := NewAggregate(0, 1)
	defer a.Release()
	if a.WireSize() != AggregateBaseSize {
		t.Errorf("empty WireSize = %d", a.WireSize())
	}
	for i := 0; i < 10; i++ {
		a.Fold(LossReport{Node: netsim.NodeID(i)})
	}
	if got, want := a.WireSize(), AggregateBaseSize+10*AggregateEntrySize; got != want {
		t.Errorf("WireSize = %d, want %d", got, want)
	}
	// The aggregation claim depends on the entry record staying far below a
	// full LossReport on the wire.
	if AggregateEntrySize*8 > LossReportSize {
		t.Errorf("AggregateEntrySize %d too close to LossReportSize %d",
			AggregateEntrySize, LossReportSize)
	}
}

func TestSuggestionBatch(t *testing.T) {
	b := NewSuggestionBatch()
	defer b.Release()
	b.Sent = 3 * sim.Second
	b.Add(4, 0, 3)
	b.Add(9, 1, 5)
	if lvl, ok := b.Find(9, 1); !ok || lvl != 5 {
		t.Errorf("Find(9,1) = %d,%v", lvl, ok)
	}
	if _, ok := b.Find(9, 0); ok {
		t.Error("Find matched the wrong session")
	}
	if _, ok := b.Find(7, 0); ok {
		t.Error("Find matched an absent node")
	}
	if got, want := b.WireSize(), BatchBaseSize+2*BatchEntrySize; got != want {
		t.Errorf("WireSize = %d, want %d", got, want)
	}
	if s := b.String(); !strings.Contains(s, "n=2") {
		t.Errorf("String = %q", s)
	}
}

func TestPoolReuseResets(t *testing.T) {
	a := NewAggregate(3, 7)
	a.Fold(LossReport{Node: 1, Level: 2, LossRate: 0.5, Bytes: 100})
	a.Release()
	for i := 0; i < 10; i++ {
		b := NewAggregate(9, 9)
		if b.Session != 9 || b.Origin != 9 || b.Sent != 0 || len(b.Entries) != 0 {
			t.Fatalf("pooled aggregate not reset: %+v", b)
		}
		b.Release()
	}
}

// TestFoldMergeNoAllocs pins the hot path's steady state at zero
// allocations: once an aggregate's entry slice has grown to its working
// set, folding and merging must not touch the heap.
func TestFoldMergeNoAllocs(t *testing.T) {
	nodes := []netsim.NodeID{10, 20, 30, 40, 50, 60, 70, 80}
	a := NewAggregate(0, 1)
	b := NewAggregate(0, 2)
	r := LossReport{Level: 3, LossRate: 0.125, Bytes: 1000}
	warm := func() {
		for _, n := range nodes {
			r.Node = n
			a.Fold(r)
			b.Fold(r)
		}
	}
	warm()
	a.Merge(b) // grow a's entries to the merged working set

	if avg := testing.AllocsPerRun(100, func() {
		for _, n := range nodes {
			r.Node = n
			a.Fold(r)
		}
	}); avg != 0 {
		t.Errorf("Fold allocates %.1f/run at steady state", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { a.Merge(b) }); avg != 0 {
		t.Errorf("Merge allocates %.1f/run at steady state", avg)
	}
}

func BenchmarkAggregateFold(b *testing.B) {
	a := NewAggregate(0, 1)
	defer a.Release()
	r := LossReport{Level: 3, LossRate: 0.125, Bytes: 1000, Interval: 500 * sim.Millisecond}
	const fanout = 64
	for i := 0; i < fanout; i++ {
		r.Node = netsim.NodeID(i * 3)
		a.Fold(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Node = netsim.NodeID((i % fanout) * 3)
		a.Fold(r)
	}
}

func BenchmarkAggregateMerge(b *testing.B) {
	const children, rxPerChild = 8, 16
	// a holds the union; each child is a disjoint block, the tree's shape.
	a := NewAggregate(0, 1)
	defer a.Release()
	var kids []*Aggregate
	r := LossReport{Level: 3, LossRate: 0.125, Bytes: 1000}
	for c := 0; c < children; c++ {
		kid := NewAggregate(0, netsim.NodeID(100+c))
		for i := 0; i < rxPerChild; i++ {
			r.Node = netsim.NodeID(c*rxPerChild + i)
			kid.Fold(r)
			a.Fold(r)
		}
		kids = append(kids, kid)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Merge(kids[i%children])
	}
}

// BenchmarkAggregateCycle runs the aggregated plane's real payload life
// cycle through the shared pools: 64 leaf aggregates of 2 receivers each
// are folded, merged eight at a time into interior aggregates of 16, those
// into a top aggregate of 128, and every one is released once merged; then
// a 128-entry suggestion batch is split per next hop into 8 batches of 16
// and those into 64 of 2, all released. Every payload starts empty, as
// NewAggregate and NewSuggestionBatch hand them out, so once the pools hold
// the working set a cycle must allocate nothing.
func BenchmarkAggregateCycle(b *testing.B) {
	const fan, leafRx = 8, 2
	r := LossReport{Level: 3, LossRate: 0.125, Bytes: 1000}
	cycle := func() {
		top := NewAggregate(0, 0)
		for i := 0; i < fan; i++ {
			mid := NewAggregate(0, netsim.NodeID(1+i))
			for j := 0; j < fan; j++ {
				leaf := NewAggregate(0, netsim.NodeID(100+fan*i+j))
				for k := 0; k < leafRx; k++ {
					r.Node = netsim.NodeID(((fan*i+j)*leafRx + k) * 3)
					leaf.Fold(r)
				}
				mid.Merge(leaf)
				leaf.Release()
			}
			top.Merge(mid)
			mid.Release()
		}
		if top.Receivers() != fan*fan*leafRx {
			b.Fatalf("top aggregate holds %d receivers", top.Receivers())
		}
		top.Release()

		all := NewSuggestionBatch()
		for n := 0; n < fan*fan*leafRx; n++ {
			all.Add(netsim.NodeID(n), 0, n%8)
		}
		var mids [fan]*SuggestionBatch
		for i := range mids {
			mids[i] = NewSuggestionBatch()
		}
		for _, e := range all.Entries {
			mids[int(e.Node)/(fan*leafRx)].Add(e.Node, e.Session, e.Level)
		}
		all.Release()
		for _, mid := range mids {
			var leaves [fan]*SuggestionBatch
			for j := range leaves {
				leaves[j] = NewSuggestionBatch()
			}
			for _, e := range mid.Entries {
				leaves[int(e.Node)/leafRx%fan].Add(e.Node, e.Session, e.Level)
			}
			mid.Release()
			for _, leaf := range leaves {
				leaf.Release()
			}
		}
	}
	// Time the production path: test binaries poison every released array.
	defer func(on bool) { sim.Poison = on }(sim.Poison)
	sim.Poison = false
	cycle() // fill the pools with the working set
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
