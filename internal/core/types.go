// Package core implements the TopoSense algorithm — the paper's primary
// contribution. TopoSense runs inside a per-domain controller agent. Each
// decision interval it consumes (a) the discovered multicast session
// topologies, possibly stale, and (b) receiver loss/byte reports, and
// produces a prescribed subscription level for every receiver.
//
// The algorithm's five stages follow Figure 4 of the paper:
//
//  1. compute a congestion state for every node of every session tree
//     (congestion.go);
//  2. estimate link capacities for shared links from observed loss and
//     throughput (capacity.go);
//  3. propagate bottleneck bandwidths through each tree (bottleneck.go);
//  4. share estimated capacity on shared links between competing sessions
//     (sharing.go);
//  5. compute per-node demand with the Table-I decision table and allocate
//     supply top-down (table.go, demand.go).
//
// The package is deliberately free of any dependency on the network
// simulator's machinery beyond identifier types: it operates on plain
// topology and report values, which keeps every stage unit-testable in
// isolation and mirrors the paper's statement that the algorithm works on
// "an internal image of the multicast tree topologies".
package core

import (
	"cmp"
	"fmt"
	"slices"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// NodeID aliases the network node identifier.
type NodeID = netsim.NodeID

// Topology is the controller's image of one session's multicast tree: the
// overlay of the per-layer distribution trees (a tree, because layers are
// cumulative), laid out breadth-first. Position 0 is the root; every parent
// comes before its children, and a node's children sit side by side, so a
// subtree's bottom-up pass is a walk backwards over the positions. The
// discovery tool writes this form during its walk and core reads it as it
// is: nothing in core writes through a Topology.
type Topology struct {
	Session int
	// Node holds the node ID at each position; node IDs are unique.
	Node []NodeID
	// Parent holds the position of each node's parent; -1 at the root.
	Parent []int32
	// KidStart holds, per position, the position of the node's first
	// child: the children of position i are positions KidStart[i] up to
	// KidStart[i+1]. It has one entry more than Node.
	KidStart []int32
	// Receiver marks the positions with attached receivers (report
	// sources).
	Receiver []bool
}

// NewTopology builds a session's topology from child -> parent edges and
// the set of receiver nodes: the tree that root reaches, siblings in ID
// order. Edges the root does not reach (a torn trace's dangling hops) and
// an edge into the root itself are left out; a root of NodeIDNone gives the
// empty topology.
func NewTopology(session int, root NodeID, parent map[NodeID]NodeID, receivers map[NodeID]bool) *Topology {
	t := &Topology{Session: session}
	if root == NodeIDNone {
		return t
	}
	edges := make([]Edge, 0, len(parent))
	for c, p := range parent {
		if c != root {
			edges = append(edges, Edge{From: p, To: c})
		}
	}
	slices.SortFunc(edges, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	// Each node has one parent and the root none, so the walk meets no node
	// twice.
	t.Node, t.Parent = []NodeID{root}, []int32{-1}
	for i := 0; i < len(t.Node); i++ {
		t.KidStart = append(t.KidStart, int32(len(t.Node)))
		k, _ := slices.BinarySearchFunc(edges, t.Node[i], func(e Edge, n NodeID) int { return cmp.Compare(e.From, n) })
		for ; k < len(edges) && edges[k].From == t.Node[i]; k++ {
			t.Node = append(t.Node, edges[k].To)
			t.Parent = append(t.Parent, int32(i))
		}
	}
	t.KidStart = append(t.KidStart, int32(len(t.Node)))
	t.Receiver = make([]bool, len(t.Node))
	for i, n := range t.Node {
		t.Receiver[i] = receivers[n]
	}
	return t
}

// Validate checks the layout's invariants: a real root, non-negative node
// IDs, arrays of matching length, child ranges that follow their parent
// and together cover every position but the root exactly once, and a
// Parent entry that names the range each node sits in. Together they make
// the arrays a tree: every node's parent comes before it, so parent links
// lead to the root. Node IDs are not checked for repeats; the discovery
// walk and NewTopology never repeat one. The controller calls this on every
// discovered topology before feeding it to the algorithm, so it allocates
// nothing on a valid tree.
func (t *Topology) Validate() error {
	n := len(t.Node)
	if n == 0 || t.Node[0] < 0 {
		return fmt.Errorf("core: topology for session %d has no root", t.Session)
	}
	if len(t.Parent) != n || len(t.Receiver) != n || len(t.KidStart) != n+1 {
		return fmt.Errorf("core: session %d's topology arrays disagree: %d nodes, %d parents, %d receiver flags, %d child starts",
			t.Session, n, len(t.Parent), len(t.Receiver), len(t.KidStart))
	}
	if t.Parent[0] != -1 {
		return fmt.Errorf("core: root %d has a parent", t.Node[0])
	}
	// The ranges run from position 1 to the end without gap or overlap:
	// every position but the root is some node's child exactly once.
	if t.KidStart[0] != 1 || t.KidStart[n] != int32(n) {
		return fmt.Errorf("core: session %d's child ranges span %d..%d, not 1..%d", t.Session, t.KidStart[0], t.KidStart[n], n)
	}
	for i, id := range t.Node {
		if id < 0 {
			return fmt.Errorf("core: node at position %d has a negative id %d", i, id)
		}
		lo, hi := t.KidStart[i], t.KidStart[i+1]
		if lo <= int32(i) || hi < lo || hi > int32(n) {
			return fmt.Errorf("core: node %d's children at positions %d..%d are out of order", id, lo, hi)
		}
		for c := lo; c < hi; c++ {
			if t.Parent[c] != int32(i) {
				return fmt.Errorf("core: node %d is child of %d but its parent entry says position %d", t.Node[c], id, t.Parent[c])
			}
		}
	}
	return nil
}

// Edge identifies a directed physical link from Parent to Child. The same
// Edge appearing in several session topologies is a shared link.
type Edge struct {
	From, To NodeID
}

func (e Edge) String() string { return fmt.Sprintf("%d->%d", e.From, e.To) }

// ReceiverState is the controller's latest view of one receiver in one
// session, assembled from loss reports.
type ReceiverState struct {
	Node     NodeID
	Session  int
	Level    int     // subscription level during the reported interval
	LossRate float64 // fraction of expected packets missing, 0..1
	Bytes    int64   // bytes received over the controller's decision interval
}

// Suggestion is the algorithm's output: the subscription level receiver
// Node should use for Session.
type Suggestion struct {
	Node    NodeID
	Session int
	Level   int
}

// Input bundles everything one Step consumes.
type Input struct {
	Now        sim.Time
	Topologies []*Topology
	Reports    []ReceiverState
}
