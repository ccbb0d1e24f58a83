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
	"fmt"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// NodeID aliases the network node identifier.
type NodeID = netsim.NodeID

// Topology is the controller's image of one session's multicast tree: the
// overlay of the per-layer distribution trees (a tree, because layers are
// cumulative).
type Topology struct {
	Session int
	Root    NodeID
	// Parent maps every non-root on-tree node to its parent.
	Parent map[NodeID]NodeID
	// Children maps every on-tree node to its children.
	Children map[NodeID][]NodeID
	// Receivers marks the nodes with attached receivers (report sources).
	Receivers map[NodeID]bool
}

// Validate checks tree invariants: a real root, non-negative node IDs,
// parent/child symmetry, no cycles, connectivity. The controller calls this
// on every discovered topology before feeding it to the algorithm, so it
// allocates nothing on a valid tree: once Parent and Children agree, a
// child count equal to len(Parent) rules out a duplicate listing, and a
// walk from the root that reaches len(Parent) children proves the rest.
func (t *Topology) Validate() error {
	if t.Root < 0 {
		return fmt.Errorf("core: topology for session %d has no root", t.Session)
	}
	if _, hasParent := t.Parent[t.Root]; hasParent {
		return fmt.Errorf("core: root %d has a parent", t.Root)
	}
	for child, parent := range t.Parent {
		if child < 0 || parent < 0 {
			return fmt.Errorf("core: edge %d->%d has a negative node id", parent, child)
		}
		found := false
		for _, c := range t.Children[parent] {
			if c == child {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("core: node %d has parent %d but is not its child", child, parent)
		}
	}
	listed := 0
	for parent, kids := range t.Children {
		for _, c := range kids {
			if p, ok := t.Parent[c]; !ok || p != parent {
				return fmt.Errorf("core: node %d is child of %d but Parent does not say so", c, parent)
			}
		}
		listed += len(kids)
	}
	// Each node is now listed only under its one parent, and the root under
	// none, so a walk from the root meets no node twice — unless a parent
	// lists a child twice.
	if listed != len(t.Parent) {
		return fmt.Errorf("core: session %d's tree lists a child twice", t.Session)
	}
	if n := t.reach(t.Root); n != len(t.Parent) {
		return fmt.Errorf("core: %d of %d nodes unreachable from root %d", len(t.Parent)-n, len(t.Parent), t.Root)
	}
	return nil
}

// reach counts the nodes below n. Recursion, not a work list: it keeps a
// pass allocation-free, and the depth is the tree's.
func (t *Topology) reach(n NodeID) int {
	k := 0
	for _, c := range t.Children[n] {
		k += 1 + t.reach(c)
	}
	return k
}

// BFSOrder returns the nodes top-down: the root first, every parent before
// its children. Reversing it yields a valid bottom-up order. Sibling order
// follows the Children slices, so it is deterministic.
func (t *Topology) BFSOrder() []NodeID {
	order := make([]NodeID, 0, len(t.Parent)+1)
	queue := []NodeID{t.Root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		queue = append(queue, t.Children[n]...)
	}
	return order
}

// IsLeaf reports whether the node has no children in this topology.
func (t *Topology) IsLeaf(n NodeID) bool { return len(t.Children[n]) == 0 }

// Edge identifies a directed physical link from Parent to Child. The same
// Edge appearing in several session topologies is a shared link.
type Edge struct {
	From, To NodeID
}

func (e Edge) String() string { return fmt.Sprintf("%d->%d", e.From, e.To) }

// EdgeTo returns the edge from n's parent to n, and false for the root.
func (t *Topology) EdgeTo(n NodeID) (Edge, bool) {
	p, ok := t.Parent[n]
	if !ok {
		return Edge{}, false
	}
	return Edge{From: p, To: n}, true
}

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
	// Subtrees carries per-subtree congestion summaries when the controller
	// consumes in-network aggregates; empty on the flat report path. The
	// decision pipeline reads Reports either way — summaries are the
	// O(branching) view kept for hierarchical control and explain output.
	Subtrees []SubtreeSummary
}
