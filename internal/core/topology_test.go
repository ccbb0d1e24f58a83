package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// chain builds a linear topology 0 -> 1 -> ... -> n-1 with the last node a
// receiver.
func chain(session, n int) *Topology {
	parent := map[NodeID]NodeID{}
	for i := 1; i < n; i++ {
		parent[NodeID(i)] = NodeID(i - 1)
	}
	return NewTopology(session, 0, parent, map[NodeID]bool{NodeID(n - 1): true})
}

// star builds root 0 with an intermediate node 1 and k receiver leaves
// 2..k+1 under it.
func star(session, k int) *Topology {
	parent := map[NodeID]NodeID{1: 0}
	receivers := map[NodeID]bool{}
	for i := 0; i < k; i++ {
		leaf := NodeID(2 + i)
		parent[leaf] = 1
		receivers[leaf] = true
	}
	return NewTopology(session, 0, parent, receivers)
}

// parentOf returns the ID of node n's parent, and false for the root or a
// node not in the tree.
func (t *Topology) parentOf(n NodeID) (NodeID, bool) {
	for i, id := range t.Node {
		if id == n && t.Parent[i] >= 0 {
			return t.Node[t.Parent[i]], true
		}
	}
	return NodeIDNone, false
}

// isReceiver reports whether node n is in the tree with a receiver.
func (t *Topology) isReceiver(n NodeID) bool {
	for i, id := range t.Node {
		if id == n {
			return t.Receiver[i]
		}
	}
	return false
}

func TestValidateGoodTrees(t *testing.T) {
	for _, topo := range []*Topology{chain(0, 1), chain(0, 5), star(0, 4)} {
		if err := topo.Validate(); err != nil {
			t.Errorf("valid tree rejected: %v", err)
		}
	}
}

func TestValidateRejectsNoRoot(t *testing.T) {
	topo := chain(0, 3)
	topo.Node[0] = NodeIDNone
	if topo.Validate() == nil {
		t.Error("no-root tree accepted")
	}
	if (&Topology{}).Validate() == nil {
		t.Error("empty tree accepted")
	}
}

func TestValidateRejectsRootWithParent(t *testing.T) {
	topo := chain(0, 3)
	topo.Parent[0] = 2
	if topo.Validate() == nil {
		t.Error("root-with-parent accepted")
	}
}

func TestValidateRejectsAsymmetry(t *testing.T) {
	topo := star(0, 3)
	topo.Parent[3] = 0 // leaf 3 claims the root as parent, but sits in node 1's range
	if topo.Validate() == nil {
		t.Error("parent/child asymmetry accepted")
	}
	topo2 := chain(0, 3)
	topo2.Parent[1] = 2 // cycle: 1 claims 2, which hangs below 1
	if topo2.Validate() == nil {
		t.Error("cycle accepted")
	}
	topo3 := chain(0, 3)
	topo3.Receiver = topo3.Receiver[:2] // a flag short
	if topo3.Validate() == nil {
		t.Error("arrays of different lengths accepted")
	}
}

func TestValidateRejectsChildWithoutParentEntry(t *testing.T) {
	// A child in its parent's range must have a Parent entry naming it —
	// also when the parent is the root, position 0, the zero value.
	for _, at := range []int{1, 2} {
		topo := star(0, 2)
		topo.Parent[at] = -1
		if topo.Validate() == nil {
			t.Errorf("child at position %d without a Parent entry accepted", at)
		}
	}
}

func TestValidateRejectsNegativeIDs(t *testing.T) {
	topo := chain(0, 3)
	topo.Node[2] = -4
	if topo.Validate() == nil {
		t.Error("negative node id accepted")
	}
}

func TestValidateRejectsUnreachable(t *testing.T) {
	topo := chain(0, 3)
	// Island: a fourth position that no child range covers.
	topo.Node = append(topo.Node, 6)
	topo.Parent = append(topo.Parent, 2)
	topo.Receiver = append(topo.Receiver, false)
	topo.KidStart = append(topo.KidStart, 3)
	if topo.Validate() == nil {
		t.Error("unreachable island accepted")
	}
}

func TestValidateRejectsDuplicateChild(t *testing.T) {
	topo := star(0, 3)
	topo.KidStart[3] = 3 // leaf 3's range re-lists leaves 3 and 4, node 1's children
	if err := topo.Validate(); err == nil {
		t.Error("duplicate child listing accepted")
	}
	// A node listing itself among its children.
	topo = star(0, 3)
	topo.KidStart[1] = 1
	if err := topo.Validate(); err == nil {
		t.Error("node listed as its own child accepted")
	}
}

func TestValidateRejectsCycleOffRoot(t *testing.T) {
	// Nodes 5 and 6, at positions 3 and 4, name each other as parent: a
	// cycle the root never reaches. Whichever range holds them, one of them
	// names the wrong parent.
	topo := chain(0, 3)
	topo.Node = append(topo.Node, 5, 6)
	topo.Parent = append(topo.Parent, 4, 3)
	topo.Receiver = append(topo.Receiver, false, false)
	topo.KidStart = []int32{1, 2, 3, 4, 5, 5}
	if err := topo.Validate(); err == nil {
		t.Error("cycle off the root accepted")
	}
}

// TestValidateAllocs: the controller validates every discovered tree every
// pass, so accepting one must not allocate.
func TestValidateAllocs(t *testing.T) {
	parent := map[NodeID]NodeID{1: 0}
	for i := NodeID(2); i < 202; i++ {
		parent[i] = 1
	}
	for i := NodeID(300); i < 340; i++ { // a deep tail below leaf 2
		parent[i] = i - 1
		if i == 300 {
			parent[i] = 2
		}
	}
	topo := NewTopology(0, 0, parent, map[NodeID]bool{339: true})
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() { _ = topo.Validate() }); got != 0 {
		t.Errorf("Validate of a valid tree allocates %v times, want 0", got)
	}
}

// TestBFSOrderParentsFirst: NewTopology lays the tree out root first, every
// parent before its children, siblings side by side in ID order.
func TestBFSOrderParentsFirst(t *testing.T) {
	topo := NewTopology(0, 0, map[NodeID]NodeID{1: 0, 7: 1, 3: 1, 5: 0, 2: 5}, map[NodeID]bool{7: true, 2: true})
	want := []NodeID{0, 1, 5, 3, 7, 2}
	if !slices.Equal(topo.Node, want) {
		t.Fatalf("order %v, want %v", topo.Node, want)
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(topo.Node); i++ {
		if topo.Parent[i] >= int32(i) {
			t.Errorf("parent of %d after it in %v", topo.Node[i], topo.Node)
		}
	}
	if !topo.isReceiver(7) || topo.isReceiver(3) {
		t.Errorf("receiver flags %v", topo.Receiver)
	}
}

// Property: random trees (built by attaching each node to a random earlier
// node) validate, and the layout visits every node exactly once, parents
// before children, each under the parent it was attached to.
func TestQuickRandomTreeInvariants(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%30) + 1
		rng := rand.New(rand.NewSource(seed))
		parent := map[NodeID]NodeID{}
		for i := 1; i < n; i++ {
			parent[NodeID(i)] = NodeID(rng.Intn(i))
		}
		topo := NewTopology(0, 0, parent, nil)
		if err := topo.Validate(); err != nil || len(topo.Node) != n {
			return false
		}
		pos := map[NodeID]int{}
		for i, id := range topo.Node {
			if _, dup := pos[id]; dup {
				return false
			}
			pos[id] = i
		}
		for child, p := range parent {
			if int(topo.Parent[pos[child]]) != pos[p] || pos[p] >= pos[child] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestIsLeafAndEdgeTo: NewTopology keeps the part of the edges the root
// reaches (a dangling hop and an edge into the root are dropped), a leaf's
// child range is empty, and an Edge prints as From->To.
func TestIsLeafAndEdgeTo(t *testing.T) {
	topo := NewTopology(4, 0, map[NodeID]NodeID{0: 2, 1: 0, 2: 1, 8: 9}, map[NodeID]bool{2: true, 8: true})
	if !slices.Equal(topo.Node, []NodeID{0, 1, 2}) || topo.Session != 4 {
		t.Fatalf("nodes %v of session %d, want [0 1 2] of 4", topo.Node, topo.Session)
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.KidStart[2] != topo.KidStart[3] || topo.KidStart[1] == topo.KidStart[2] {
		t.Errorf("leaf 2 has children or node 1 none: %v", topo.KidStart)
	}
	if p, ok := topo.parentOf(2); !ok || p != 1 {
		t.Errorf("parent of 2 = %d, %v", p, ok)
	}
	if _, ok := topo.parentOf(0); ok {
		t.Error("root has an incoming edge")
	}
	if topo.isReceiver(8) {
		t.Error("unreachable receiver kept")
	}
	if e := (Edge{From: 1, To: 2}); e.String() != "1->2" {
		t.Errorf("Edge.String = %q", e.String())
	}
	if empty := NewTopology(1, NodeIDNone, map[NodeID]NodeID{3: 2}, nil); len(empty.Node) != 0 {
		t.Errorf("rootless topology not empty: %+v", empty)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := NewConfig([]float64{32e3, 64e3})
	if c.PThreshold != DefaultPThreshold || c.Interval != DefaultInterval {
		t.Errorf("defaults not applied: %+v", c)
	}
	if c.MaxLevel() != 2 {
		t.Errorf("MaxLevel = %d", c.MaxLevel())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{LayerRates: []float64{0}},
		{LayerRates: []float64{-1}},
		{LayerRates: []float64{1}, PThreshold: 2},
		{LayerRates: []float64{1}, PThreshold: 0.1, EtaSimilar: 1.5},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestConfigNormalizePanicsOnEmptyRates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var c Config
	c.Normalize()
}

func TestCumRateAndLevelFor(t *testing.T) {
	c := NewConfig([]float64{32e3, 64e3, 128e3, 256e3})
	if c.CumRate(0) != 0 || c.CumRate(2) != 96e3 || c.CumRate(4) != 480e3 {
		t.Error("CumRate wrong")
	}
	if c.CumRate(99) != 480e3 {
		t.Error("CumRate should saturate")
	}
	if c.LevelFor(500e3) != 4 || c.LevelFor(100e3) != 2 || c.LevelFor(0) != 0 {
		t.Error("LevelFor wrong")
	}
}

// Property: LevelFor and CumRate are inverses in the sense that
// CumRate(LevelFor(b)) <= b < CumRate(LevelFor(b)+1).
func TestQuickLevelForCumRate(t *testing.T) {
	c := NewConfig([]float64{32e3, 64e3, 128e3, 256e3, 512e3, 1024e3})
	f := func(kb uint16) bool {
		b := float64(kb) * 1000
		l := c.LevelFor(b)
		if c.CumRate(l) > b {
			return false
		}
		if l < c.MaxLevel() && c.CumRate(l+1) <= b {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
