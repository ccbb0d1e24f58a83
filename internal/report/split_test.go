package report

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// hopSent is one sub-batch seen leaving the sender: the next hop it went
// to and a copy of what it carried.
type hopSent struct {
	next    netsim.NodeID
	sent    sim.Time
	size    int
	entries []SugEntry
}

// splitWorld is a network whose every node releases the batches delivered
// to it, with a probe that records the batches leaving from while record is
// set.
type splitWorld struct {
	e      *sim.Engine
	net    *netsim.Network
	from   netsim.NodeID
	record bool
	wire   []hopSent
}

// batchSink takes ownership of every SuggestionBatch delivered to its node.
type batchSink struct{}

func (batchSink) Recv(p *netsim.Packet) {
	if b, ok := p.Payload.(*SuggestionBatch); ok {
		b.Release()
	}
}

// newSplitWorld builds one node per entry of parent, links node i to
// parent[i] when that is not -1, and sends from node from.
func newSplitWorld(parent []int, from int) *splitWorld {
	w := &splitWorld{e: sim.NewEngine(1), from: netsim.NodeID(from)}
	w.net = netsim.New(w.e)
	cfg := netsim.LinkConfig{Bandwidth: 1e9, Delay: sim.Millisecond, QueueLimit: 4}
	nodes := make([]*netsim.Node, len(parent))
	for i := range nodes {
		nodes[i] = w.net.AddNode(fmt.Sprint("n", i))
		nodes[i].AttachAgent(batchSink{})
		if parent[i] >= 0 {
			w.net.Connect(nodes[i], nodes[parent[i]], cfg)
		}
	}
	w.net.AttachProbe(&netsim.FuncProbe{OnEnqueue: func(l *netsim.Link, p *netsim.Packet) {
		if !w.record || l.From != w.from {
			return
		}
		b := p.Payload.(*SuggestionBatch)
		w.wire = append(w.wire, hopSent{l.To, b.Sent, p.Size, append([]SugEntry(nil), b.Entries...)})
	}})
	return w
}

// refSplit is the split's naive reference: each entry goes to the group of
// NextHop(from, entry.Node), groups in the order their first entry appears;
// the sender's own entries and unroutable ones go nowhere.
func refSplit(net *netsim.Network, from netsim.NodeID, entries []SugEntry, sent sim.Time) (want []hopSent, routed int) {
	for _, e := range entries {
		next := net.NextHop(from, e.Node)
		if e.Node == from || next == netsim.NoNode {
			continue
		}
		routed++
		i := 0
		for i < len(want) && want[i].next != next {
			i++
		}
		if i == len(want) {
			want = append(want, hopSent{next: next, sent: sent})
		}
		want[i].entries = append(want[i].entries, e)
	}
	for i := range want {
		want[i].size = BatchBaseSize + len(want[i].entries)*BatchEntrySize
	}
	return want, routed
}

// check splits entries once and compares what left the sender, and the
// counts returned, with the reference; then it drains the network and
// checks every batch went back to the pool.
func (w *splitWorld) check(t *testing.T, s *Splitter, entries []SugEntry) {
	t.Helper()
	const sent = 3 * sim.Millisecond
	live := BatchesLive()
	w.wire, w.record = w.wire[:0], true
	routed, packets := s.Split(w.net, w.from, entries, sent, w.e.Now())
	w.record = false
	want, wantRouted := refSplit(w.net, w.from, entries, sent)
	if !reflect.DeepEqual(w.wire, want) {
		t.Fatalf("split from %d of %v:\n got  %+v\n want %+v", w.from, entries, w.wire, want)
	}
	if routed != wantRouted || packets != len(want) {
		t.Fatalf("split from %d returned %d routed, %d packets; want %d, %d", w.from, routed, packets, wantRouted, len(want))
	}
	w.e.Run()
	if got := BatchesLive(); got != live {
		t.Fatalf("%d batches live after the drain, want %d", got, live)
	}
}

// TestSuggestionSplit: each next hop gets exactly the entries routed
// through it, in entry order, with groups in first-seen order; the
// sender's own entries and unroutable ones are skipped. It is run from the
// root, as the controller sends, and from an interior node, as an
// aggregating hop forwards, and allocates nothing once warm.
func TestSuggestionSplit(t *testing.T) {
	//      0
	//    1   2      6 (no link)
	//   3 4   5
	parent := []int{-1, 0, 0, 1, 1, 2, -1}
	entries := []SugEntry{
		{Node: 3, Session: 0, Level: 2}, {Node: 5, Session: 0, Level: 1},
		{Node: 0, Session: 0, Level: 4}, {Node: 4, Session: 1, Level: 3},
		{Node: 6, Session: 0, Level: 2}, {Node: 1, Session: 2, Level: 5},
		{Node: 5, Session: 1, Level: 6},
	}
	for _, tc := range []struct {
		from int
		want []hopSent
	}{
		{0, []hopSent{
			{next: 1, entries: []SugEntry{entries[0], entries[3], entries[5]}},
			{next: 2, entries: []SugEntry{entries[1], entries[6]}},
		}},
		{1, []hopSent{
			{next: 3, entries: []SugEntry{entries[0]}},
			{next: 0, entries: []SugEntry{entries[1], entries[2], entries[6]}},
			{next: 4, entries: []SugEntry{entries[3]}},
		}},
	} {
		w := newSplitWorld(parent, tc.from)
		var s Splitter
		w.check(t, &s, entries)
		for i, g := range w.wire {
			if g.next != tc.want[i].next || !reflect.DeepEqual(g.entries, tc.want[i].entries) {
				t.Errorf("from %d, batch %d: %d gets %v, want %d gets %v", tc.from, i, g.next, g.entries, tc.want[i].next, tc.want[i].entries)
			}
		}
		if len(w.wire) != len(tc.want) {
			t.Errorf("from %d: %d batches, want %d", tc.from, len(w.wire), len(tc.want))
		}
		if allocs := testing.AllocsPerRun(100, func() {
			s.Split(w.net, w.from, entries, 0, w.e.Now())
			w.e.Run()
		}); allocs != 0 {
			t.Errorf("from %d: %v allocs a warm split, want 0", tc.from, allocs)
		}
	}
}

// Split script bytes: a header of three, then three bytes per entry.
//
//	header: node count (2 + b%24), sender, shape seed
//	entry:  node, session, level
//
// The shape seed draws a random forest: each node links to an earlier one,
// or with odds 1 in 5 starts a tree of its own. One more node has no link
// at all. Entry nodes are taken modulo the node count, so the sender and
// the unlinked node come up too.
var splitSeeds = [][]byte{
	{8, 0, 1, 1, 0, 2, 2, 1, 3, 3, 0, 4, 4, 1, 5, 5, 0, 6, 6, 2, 1, 8, 0, 1, 7, 1, 2},
	{20, 5, 9, 5, 0, 1, 12, 1, 2, 19, 0, 3, 3, 2, 4, 21, 1, 5, 5, 0, 6, 0, 0, 1},
	{2, 1, 0, 0, 0, 1, 1, 0, 2, 2, 0, 3},
	{30, 11, 42, 1, 0, 1, 2, 0, 1, 3, 0, 1, 4, 1, 1, 5, 1, 1, 6, 2, 1, 7, 2, 1, 31, 0, 1, 11, 0, 1},
}

// runSplitScript builds a script's forest and checks one split against the
// reference, twice, through the same Splitter: the second reuses the warm
// scratch.
func runSplitScript(t *testing.T, data []byte) {
	if len(data) < 3 {
		return
	}
	n := 2 + int(data[0])%24
	rng := rand.New(rand.NewSource(int64(data[2])))
	parent := make([]int, n+1)
	parent[0], parent[n] = -1, -1
	for i := 1; i < n; i++ {
		parent[i] = -1
		if rng.Intn(5) != 0 {
			parent[i] = rng.Intn(i)
		}
	}
	w := newSplitWorld(parent, int(data[1])%(n+1))
	var entries []SugEntry
	for b := data[3:]; len(b) >= 3 && len(entries) < 200; b = b[3:] {
		entries = append(entries, SugEntry{Node: netsim.NodeID(int(b[0]) % (n + 1)), Session: int(b[1]) % 4, Level: int(b[2])%6 + 1})
	}
	var s Splitter
	w.check(t, &s, entries)
	w.check(t, &s, entries)
}

func FuzzSuggestionSplit(f *testing.F) {
	for _, data := range splitSeeds {
		f.Add(data)
	}
	f.Fuzz(runSplitScript)
}
