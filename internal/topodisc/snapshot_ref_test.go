package topodisc_test

import (
	"reflect"
	"testing"

	"toposense/internal/experiments"
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
