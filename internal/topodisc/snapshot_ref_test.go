package topodisc_test

import (
	"math/rand"
	"reflect"
	"testing"

	"toposense/internal/experiments"
	"toposense/internal/faults"
	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/sim"
	"toposense/internal/topodisc"
)

// refSnapshot is SnapshotNow as first written: unsized maps, a GroupOf
// lookup per node per layer, every child list built by append. The tuned
// walk must discover exactly the same snapshot.
func refSnapshot(d *mcast.Domain, scope map[netsim.NodeID]bool, at sim.Time, session int) *topodisc.Snapshot {
	base := d.GroupOf(session, 1)
	snap := &topodisc.Snapshot{
		At: at, Session: session, Root: netsim.NoNode,
		Parent:    map[netsim.NodeID]netsim.NodeID{},
		Children:  map[netsim.NodeID][]netsim.NodeID{},
		MaxLayer:  map[netsim.NodeID]int{},
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
		max := 0
		for l := 1; d.GroupOf(session, l) != netsim.NoGroup; l++ {
			if g := d.GroupOf(session, l); d.OnTree(n, g) || d.HasLocalMembers(n, g) {
				max = l
			}
		}
		snap.MaxLayer[n] = max
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

// TestSnapshotMatchesReference churns every receiver of the paper's two
// topologies and the 1024-receiver tree and compares, once a simulated
// second, the whole-network snapshot and one per administrative domain
// against the reference walk.
func TestSnapshotMatchesReference(t *testing.T) {
	for _, topo := range []string{"a,rxset=2", "b,sessions=4", "tree,depth=3,branch=8,rxleaf=2"} {
		sc := experiments.DefaultScenario()
		sc.Topo, sc.Churn, sc.Duration = topo, 4, 12
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
		compared, nodes := 0, 0
		for s := 1; s <= int(sc.Duration); s++ {
			w.Run(sim.FromSeconds(float64(s)))
			for _, tool := range tools {
				for _, session := range sessions {
					got := tool.SnapshotNow(session)
					want := refSnapshot(w.Domain, tool.Scope, w.Engine.Now(), session)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s at %d s, session %d, scoped %v: snapshot differs from the reference walk\n got %+v\nwant %+v",
							topo, s, session, tool.Scope != nil, got, want)
					}
					// Child lists share the walk's queue: each must be capped
					// so that growing one cannot overwrite its neighbour.
					for n, kids := range got.Children {
						if cap(kids) != len(kids) {
							t.Fatalf("%s: node %d's child list has len %d cap %d", topo, n, len(kids), cap(kids))
						}
					}
					compared++
					nodes += len(got.MaxLayer)
				}
			}
		}
		if nodes == 0 {
			t.Fatalf("%s: %d snapshots compared, all empty", topo, compared)
		}
	}
}

// nopMember is a group member that ignores its data.
type nopMember struct{}

func (nopMember) RecvMulticast(*netsim.Packet) {}

// TestSnapshotReuseMatchesWalk pins the discovery shortcut: a period that
// finds the session's layer-group versions unchanged records the previous
// walk again instead of walking. Over 25 seeds of random joins, leaves, link
// outages and sub-delay flaps on a random tree — grafts, prunes and repair
// detaches landing between discoveries — every recorded snapshot, reused or
// walked, whole-network or scoped to a subtree, must equal the reference
// walk of the routing state at that instant (At aside, which must be now).
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
		prev := make([]uintptr, len(tools))
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
				if tool.Discoveries != before+1 || got == nil || got.At != e.Now() {
					t.Fatalf("seed %d op %d: discovery not recorded at %v: %+v", seed, op, e.Now(), got)
				}
				want := refSnapshot(d, tool.Scope, e.Now(), 0)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d, scoped %v: recorded snapshot differs from the reference walk\n got %+v\nwant %+v",
						seed, op, tool.Scope != nil, got, want)
				}
				if id := reflect.ValueOf(got.Parent).Pointer(); id == prev[i] {
					reused++
				} else {
					walked++
					prev[i] = id
				}
			}
		}
	}
	if reused == 0 || walked < 100 {
		t.Errorf("%d snapshots reused, %d walked: the shortcut or the churn never ran", reused, walked)
	}
	t.Logf("%d snapshots reused, %d walked", reused, walked)
}
