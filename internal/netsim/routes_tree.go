package netsim

import (
	"fmt"
	"sort"
)

// Tree-mode routing. The all-pairs nextHop table costs O(N²) memory — at
// 10^5 nodes that is 80 GB of NodeIDs, far past any budget — but the
// large-topology generator families (star, k-ary tree, linear chains) are
// trees, where shortest paths are unique and a next hop is answerable from
// O(N) state: parent pointers plus an Euler-tour (tin/tout) interval per
// node. NextHop(src, dst) is then

//	dst in src's subtree → the child of src whose interval contains dst
//	otherwise            → parent[src]

// with the child found by binary search over src's tin-ordered children.
// Every network tries this mode first — building it is one O(N) pass, and a
// multicast session is a tree more often than not — and falls back to the
// dense tables when the graph is not a symmetric forest. Fault injection
// (Link.SetDown/SetUp) needs column diffs over dense tables, so it forces
// dense mode — see ensureDenseRoutes.

// maxDenseNodes bounds the dense all-pairs table: above it, the table
// would exceed ~8 GB and materializing one is a configuration error.
// Fault injection requires dense tables, so link failures in topologies
// past this size are rejected (panic) rather than thrashing the host.
var maxDenseNodes = 1 << 15

// treeRoutes answers next-hop queries over a spanning forest in O(log k)
// for k = the fan-out of src, with O(N) total memory.
type treeRoutes struct {
	parent []NodeID // parent in the BFS forest; NoNode at roots
	comp   []int32  // connected-component index
	tin    []int32  // Euler-tour entry time; subtree(v) = [tin[v], tout[v]]
	tout   []int32
	// Children in CSR form, tin-ordered: kids[kidHead[v]:kidHead[v+1]].
	kidHead []int32
	kids    []NodeID
}

// buildTreeRoutes returns tree-mode routing state, or nil if the live
// graph is not a symmetric forest (an asymmetric link, a down link, or a
// cycle) — callers then fall back to dense tables.
func (n *Network) buildTreeRoutes() *treeRoutes {
	num := len(n.nodes)
	// Count directed edges, requiring every link up and symmetric.
	directed := 0
	for _, node := range n.nodes {
		for _, ol := range node.links {
			if ol.link.down {
				return nil
			}
			back := n.nodes[ol.to].LinkTo(node.ID)
			if back == nil || back.down {
				return nil
			}
			directed++
		}
	}
	t := &treeRoutes{
		parent:  make([]NodeID, num),
		comp:    make([]int32, num),
		tin:     make([]int32, num),
		tout:    make([]int32, num),
		kidHead: make([]int32, num+1),
	}
	for i := range t.comp {
		t.parent[i] = NoNode
		t.comp[i] = -1
	}
	// BFS forest from ascending roots; out-link tables are ascending by
	// neighbor, so parent assignment matches the dense BFS tie-break (lowest
	// ID wins).
	comps := int32(0)
	queue := make([]NodeID, 0, num)
	for root := 0; root < num; root++ {
		if t.comp[root] != -1 {
			continue
		}
		t.comp[root] = comps
		queue = append(queue[:0], NodeID(root))
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			for _, ol := range n.nodes[cur].links {
				nb := ol.to
				if t.comp[nb] != -1 {
					continue
				}
				t.comp[nb] = comps
				t.parent[nb] = cur
				queue = append(queue, nb)
			}
		}
		comps++
	}
	// A forest of c components over e undirected edges has e = num - c;
	// anything more means a cycle, so shortest paths are no longer unique
	// and the dense tables must arbitrate.
	if directed != 2*(num-int(comps)) {
		return nil
	}
	// Children in CSR form by two-pass counting over parent[]. Filling in
	// ascending v order keeps each node's kids ascending by ID — and BFS
	// from ascending roots discovers children in ID order too, so tin is
	// also ascending within kids: one array serves both searches.
	for v := 0; v < num; v++ {
		if p := t.parent[v]; p != NoNode {
			t.kidHead[p+1]++
		}
	}
	for i := 1; i <= num; i++ {
		t.kidHead[i] += t.kidHead[i-1]
	}
	t.kids = make([]NodeID, t.kidHead[num])
	next := make([]int32, num)
	copy(next, t.kidHead[:num])
	for v := 0; v < num; v++ {
		if p := t.parent[v]; p != NoNode {
			t.kids[next[p]] = NodeID(v)
			next[p]++
		}
	}
	// Iterative DFS over the CSR assigns tin at first visit; tout[v] is the
	// max tin in v's subtree, so the subtree test is a closed interval.
	timer := int32(0)
	type frame struct {
		v   NodeID
		kid int32
	}
	stack := make([]frame, 0, 64)
	for root := 0; root < num; root++ {
		if t.parent[root] != NoNode {
			continue
		}
		t.tin[root] = timer
		timer++
		stack = append(stack[:0], frame{NodeID(root), t.kidHead[root]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.kid < t.kidHead[f.v+1] {
				child := t.kids[f.kid]
				f.kid++
				t.tin[child] = timer
				timer++
				stack = append(stack, frame{child, t.kidHead[child]})
				continue
			}
			t.tout[f.v] = timer - 1
			stack = stack[:len(stack)-1]
		}
	}
	return t
}

// nextHop answers one query against the forest.
func (t *treeRoutes) nextHop(src, dst NodeID) NodeID {
	if src == dst {
		return dst
	}
	if t.comp[src] != t.comp[dst] {
		return NoNode
	}
	if !(t.tin[src] < t.tin[dst] && t.tin[dst] <= t.tout[src]) {
		// dst is outside src's subtree: the unique path starts upward.
		return t.parent[src]
	}
	// dst is below src: find the child whose Euler interval contains it —
	// the last child with tin <= tin[dst], since intervals partition the
	// subtree in tin order.
	lo, hi := t.kidHead[src], t.kidHead[src+1]
	target := t.tin[dst]
	i := int32(sort.Search(int(hi-lo), func(i int) bool {
		return t.tin[t.kids[lo+int32(i)]] > target
	}))
	return t.kids[lo+i-1]
}

// ensureDenseRoutes forces the dense all-pairs tables, permanently for
// this network: fault injection diffs whole columns, which tree mode
// cannot answer. Called by Link.SetDown/SetUp before flipping state.
// Dropping tree mode bumps the route epoch like any other invalidation.
func (n *Network) ensureDenseRoutes() {
	n.denseOnly = true
	if n.tree != nil {
		n.tree = nil
		n.epoch++
	}
	if n.nextHop != nil {
		return
	}
	if len(n.nodes) > maxDenseNodes {
		panic(fmt.Sprintf(
			"netsim: link fault injection needs dense routing tables, infeasible at %d nodes (max %d); use a smaller topology for failure experiments",
			len(n.nodes), maxDenseNodes))
	}
	n.computeRoutes()
}
