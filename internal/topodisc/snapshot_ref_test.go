package topodisc_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"toposense/internal/core"
	"toposense/internal/experiments"
	"toposense/internal/faults"
	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/sim"
	"toposense/internal/topodisc"
)

// refTree is a discovered tree keyed by node ID, the form the walk first
// produced: each visited node's parent (none for the root), its children in
// walk order (nil for a leaf) and the receivers.
type refTree struct {
	Root      netsim.NodeID
	Parent    map[netsim.NodeID]netsim.NodeID
	Children  map[netsim.NodeID][]netsim.NodeID
	Receivers map[netsim.NodeID]bool
}

// torn reports whether some node is listed under two parents, which the
// reference walks twice.
func (r refTree) torn() bool {
	listed := 0
	for _, kids := range r.Children {
		listed += len(kids)
	}
	return listed != len(r.Parent)
}

// refSnapshot is SnapshotNow as first written: maps keyed by node ID, a
// ForwardingChildren slice per node, every child list built by append. The
// dense walk must discover exactly the same tree.
func refSnapshot(d *mcast.Domain, scope map[netsim.NodeID]bool, session int) refTree {
	base := d.GroupOf(session, 1)
	snap := refTree{
		Root:      netsim.NoNode,
		Parent:    map[netsim.NodeID]netsim.NodeID{},
		Children:  map[netsim.NodeID][]netsim.NodeID{},
		Receivers: map[netsim.NodeID]bool{},
	}
	if base == netsim.NoGroup {
		return snap
	}
	queue := []netsim.NodeID{d.Source(base)}
	for scope != nil && len(queue) > 0 && !scope[queue[0]] { // find the ingress
		queue = append(queue[1:], d.ForwardingChildren(queue[0], base)...)
	}
	if len(queue) == 0 {
		return snap
	}
	snap.Root = queue[0]
	queue = queue[:1]
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if d.HasLocalMembers(n, base) {
			snap.Receivers[n] = true
		}
		var kids []netsim.NodeID
		for _, c := range d.ForwardingChildren(n, base) {
			if scope == nil || scope[c] {
				kids = append(kids, c)
			}
		}
		snap.Children[n] = kids
		for _, c := range kids {
			snap.Parent[c] = n
			queue = append(queue, c)
		}
	}
	return snap
}

// treeOf reads a snapshot's arrays back into the keyed form.
func treeOf(s *topodisc.Snapshot) refTree {
	r := refTree{
		Root:      netsim.NoNode,
		Parent:    map[netsim.NodeID]netsim.NodeID{},
		Children:  map[netsim.NodeID][]netsim.NodeID{},
		Receivers: map[netsim.NodeID]bool{},
	}
	for i, id := range s.Node {
		if i == 0 {
			r.Root = id
		} else {
			r.Parent[id] = s.Node[s.Parent[i]]
		}
		var kids []netsim.NodeID
		for c := s.KidStart[i]; c < s.KidStart[i+1]; c++ {
			kids = append(kids, s.Node[c])
		}
		r.Children[id] = kids
		if s.Receiver[i] {
			r.Receivers[id] = true
		}
	}
	return r
}

// checkWalk compares a snapshot against the reference walk of the routing
// state it was taken from: the same tree, or Torn exactly when the reference
// lists a node under two parents. It also rebuilds the reference's edges
// through core.NewTopology, the constructor probe rounds use, which must
// lay the tree out exactly as the walk did.
func checkWalk(t *testing.T, where string, got *topodisc.Snapshot, want refTree) {
	t.Helper()
	if want.torn() || got.Torn {
		if !want.torn() || !got.Torn {
			t.Fatalf("%s: snapshot torn %v, reference torn %v", where, got.Torn, want.torn())
		}
		return
	}
	if tree := treeOf(got); !reflect.DeepEqual(tree, want) {
		t.Fatalf("%s: snapshot differs from the reference walk\n got %+v\nwant %+v", where, tree, want)
	}
	if err := got.Validate(); err != nil && !got.Empty() {
		t.Fatalf("%s: walked tree invalid: %v", where, err)
	}
	rebuilt := core.NewTopology(got.Session, want.Root, want.Parent, want.Receivers)
	if !reflect.DeepEqual(*rebuilt, got.Topology) {
		t.Fatalf("%s: rebuilt from the reference edges\n got %+v\nwant %+v", where, *rebuilt, got.Topology)
	}
}

// FuzzSnapshotWalk churns every receiver of one of the paper's two
// topologies or the 1024-receiver tree and compares, once a simulated
// second, the whole-network snapshot and one per administrative domain
// against the reference walk, and the probe constructor's rebuild of the
// reference edges against both.
func FuzzSnapshotWalk(f *testing.F) {
	families := []string{"a,rxset=2", "b,sessions=4", "tree,depth=3,branch=8,rxleaf=2"}
	for family := range families {
		f.Add(uint8(family), int64(1), uint8(4), uint8(11)) // 12 s
	}
	f.Fuzz(func(t *testing.T, family uint8, seed int64, churn, seconds uint8) {
		sc := experiments.DefaultScenario()
		sc.Topo = families[int(family)%len(families)]
		sc.Seed, sc.Churn, sc.Duration = seed, float64(churn%16), float64(1+seconds%12)
		w, err := sc.Assemble(&experiments.Meter{})
		if err != nil {
			t.Fatal(err)
		}
		sessions := w.Tool.Sessions()
		tools := []*topodisc.Tool{w.Tool}
		labels := w.Build.Domains
		if labels == nil {
			labels = w.Build.FallbackDomains()
		}
		scopes := map[int]map[netsim.NodeID]bool{}
		for n, label := range labels {
			if scopes[label] == nil {
				scopes[label] = map[netsim.NodeID]bool{}
				scoped := topodisc.NewTool(w.Net, w.Domain, sessions)
				scoped.Scope = scopes[label]
				tools = append(tools, scoped)
			}
			scopes[label][netsim.NodeID(n)] = true
		}
		for s := 1; s <= int(sc.Duration); s++ {
			w.Run(sim.FromSeconds(float64(s)))
			for _, tool := range tools {
				for _, session := range sessions {
					where := fmt.Sprintf("%s at %d s, session %d, scoped %v", sc.Topo, s, session, tool.Scope != nil)
					checkWalk(t, where, tool.SnapshotNow(session), refSnapshot(w.Domain, tool.Scope, session))
				}
			}
		}
	})
}

// nopMember is a group member that ignores its data.
type nopMember struct{}

func (nopMember) RecvMulticast(*netsim.Packet) {}

// TestSnapshotReuseMatchesWalk pins the discovery shortcut: a period that
// finds the session's layer-group versions unchanged records the previous
// snapshot again, itself and not a copy, instead of walking. Over 25 seeds of random joins, leaves, link
// outages and sub-delay flaps on a random tree — grafts, prunes and repair
// detaches landing between discoveries — every recorded snapshot, reused or
// walked, whole-network or scoped to a subtree, must equal the reference
// walk of the routing state at that instant.
func TestSnapshotReuseMatchesWalk(t *testing.T) {
	reused, walked := 0, 0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine(seed)
		n := netsim.New(e)
		cfg := netsim.LinkConfig{Bandwidth: 100e6, Delay: 5 * sim.Millisecond, QueueLimit: 1000}
		numNodes := rng.Intn(12) + 4
		nodes := make([]*netsim.Node, numNodes)
		parent := make([]int, numNodes)
		nodes[0] = n.AddNode("src")
		for i := 1; i < numNodes; i++ {
			nodes[i] = n.AddNode("n")
			parent[i] = rng.Intn(i)
			n.Connect(nodes[i], nodes[parent[i]], cfg)
		}
		d := mcast.NewDomain(n)
		d.LeaveLatency = 100 * sim.Millisecond
		groups := []netsim.GroupID{d.RegisterGroup(0, 1, nodes[0].ID), d.RegisterGroup(0, 2, nodes[0].ID)}
		inj := faults.New(n)
		links := n.Links()

		// One whole-network tool and one scoped to a random subtree.
		scope := map[netsim.NodeID]bool{}
		top := rng.Intn(numNodes-1) + 1
		for i := top; i < numNodes; i++ {
			if i == top || scope[nodes[parent[i]].ID] {
				scope[nodes[i].ID] = true
			}
		}
		tools := []*topodisc.Tool{topodisc.NewTool(n, d, []int{0}), topodisc.NewTool(n, d, []int{0})}
		tools[1].Scope = scope

		members := map[[2]int]*nopMember{}
		joined := map[[2]int]bool{}
		prev := make([]*topodisc.Snapshot, len(tools))
		for op := 0; op < 60; op++ {
			switch r := rng.Intn(8); {
			case r == 0:
				l := links[rng.Intn(len(links))]
				start := e.Now() + sim.Time(rng.Intn(200))*sim.Millisecond
				inj.Outage(start, sim.Time(rng.Intn(900)+100)*sim.Millisecond, l, l.Reverse())
			case r == 1:
				// A flap: down and up again within one link delay.
				l := links[rng.Intn(len(links))]
				inj.Outage(e.Now()+sim.Time(rng.Intn(50))*sim.Millisecond, sim.Time(rng.Intn(4)+1)*sim.Millisecond, l, l.Reverse())
			case r < 5:
				k := [2]int{rng.Intn(numNodes-1) + 1, rng.Intn(len(groups))}
				if members[k] == nil {
					members[k] = &nopMember{}
				}
				if joined[k] {
					d.Leave(nodes[k[0]].ID, groups[k[1]], members[k])
				} else {
					d.Join(nodes[k[0]].ID, groups[k[1]], members[k])
				}
				joined[k] = !joined[k]
			default:
				// Nothing: a quiet stretch, where reuse has to happen.
			}
			e.RunUntil(e.Now() + sim.Time(rng.Intn(120))*sim.Millisecond)
			for i, tool := range tools {
				before := tool.Discoveries
				tool.SnapshotAll()
				got := tool.Discover(0)
				// A walk is stamped now; a reused snapshot keeps its walk's
				// time, and is the very snapshot recorded before.
				if tool.Discoveries != before+1 || got == nil || got.At != e.Now() && got != prev[i] {
					t.Fatalf("seed %d op %d: discovery not recorded at %v: %+v", seed, op, e.Now(), got)
				}
				where := fmt.Sprintf("seed %d op %d, scoped %v", seed, op, tool.Scope != nil)
				checkWalk(t, where, got, refSnapshot(d, tool.Scope, 0))
				if got == prev[i] {
					reused++
				} else {
					walked++
					prev[i] = got
				}
			}
		}
	}
	if reused == 0 || walked < 100 {
		t.Errorf("%d snapshots reused, %d walked: the shortcut or the churn never ran", reused, walked)
	}
	t.Logf("%d snapshots reused, %d walked", reused, walked)
}

// BenchmarkSnapshotWalk is one walk of a tree that changed: the 21 111-node
// tree of `tree,depth=4,branch=10,rxleaf=1` (the tree10k-flat workload),
// read the way a discovery period reads it after a join or leave. One op is
// one walk; it allocates the snapshot and its four arrays, sized from the
// last recorded snapshot, and nothing per node.
func BenchmarkSnapshotWalk(b *testing.B) {
	sc := experiments.DefaultScenario()
	sc.Topo, sc.Duration = "tree,depth=4,branch=10,rxleaf=1", 10
	w, err := sc.Assemble(&experiments.Meter{})
	if err != nil {
		b.Fatal(err)
	}
	w.Run(2 * sim.Second) // every receiver joined, the tree recorded
	session := w.Tool.Sessions()[0]
	if n := len(w.Tool.SnapshotNow(session).Node); n != 21111 {
		b.Fatalf("tree of %d nodes, want 21 111", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Tool.SnapshotNow(session)
	}
}
