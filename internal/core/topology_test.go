package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// chain builds a linear topology 0 -> 1 -> ... -> n-1 with the last node a
// receiver.
func chain(session, n int) *Topology {
	t := &Topology{
		Session:   session,
		Root:      0,
		Parent:    map[NodeID]NodeID{},
		Children:  map[NodeID][]NodeID{},
		Receivers: map[NodeID]bool{},
	}
	for i := 1; i < n; i++ {
		t.Parent[NodeID(i)] = NodeID(i - 1)
		t.Children[NodeID(i-1)] = []NodeID{NodeID(i)}
	}
	t.Receivers[NodeID(n-1)] = true
	return t
}

// star builds root 0 with an intermediate node 1 and k receiver leaves
// 2..k+1 under it.
func star(session, k int) *Topology {
	t := &Topology{
		Session:   session,
		Root:      0,
		Parent:    map[NodeID]NodeID{1: 0},
		Children:  map[NodeID][]NodeID{0: {1}},
		Receivers: map[NodeID]bool{},
	}
	for i := 0; i < k; i++ {
		leaf := NodeID(2 + i)
		t.Parent[leaf] = 1
		t.Children[1] = append(t.Children[1], leaf)
		t.Receivers[leaf] = true
	}
	return t
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
	topo.Root = NodeIDNone
	if topo.Validate() == nil {
		t.Error("no-root tree accepted")
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
	topo := chain(0, 3)
	topo.Parent[9] = 0 // 9 claims parent 0, but 0 does not list it
	if topo.Validate() == nil {
		t.Error("parent/child asymmetry accepted")
	}
	topo2 := chain(0, 3)
	topo2.Children[2] = append(topo2.Children[2], 1) // cycle back to 1
	if topo2.Validate() == nil {
		t.Error("cycle accepted")
	}
}

func TestValidateRejectsChildWithoutParentEntry(t *testing.T) {
	// A child listed under its parent must have a Parent entry naming it —
	// also when the parent is node 0, the zero value of a missing entry.
	for _, root := range []NodeID{0, 1} {
		topo := &Topology{Root: root, Children: map[NodeID][]NodeID{root: {5}},
			Parent: map[NodeID]NodeID{}, Receivers: map[NodeID]bool{5: true}}
		if topo.Validate() == nil {
			t.Errorf("root %d: child 5 without a Parent entry accepted", root)
		}
	}
}

func TestValidateRejectsNegativeIDs(t *testing.T) {
	topo := chain(0, 3)
	topo.Parent[-4] = 2
	topo.Children[2] = []NodeID{-4}
	if topo.Validate() == nil {
		t.Error("negative node id accepted")
	}
}

func TestValidateRejectsUnreachable(t *testing.T) {
	topo := chain(0, 3)
	// Island: 5 -> 6 disconnected from the root.
	topo.Parent[6] = 5
	topo.Children[5] = []NodeID{6}
	if topo.Validate() == nil {
		t.Error("unreachable island accepted")
	}
}

func TestBFSOrderParentsFirst(t *testing.T) {
	topo := star(0, 5)
	order := topo.BFSOrder()
	pos := map[NodeID]int{}
	for i, n := range order {
		pos[n] = i
	}
	if len(order) != 7 {
		t.Fatalf("order %v", order)
	}
	for child, parent := range topo.Parent {
		if pos[parent] >= pos[child] {
			t.Errorf("parent %d after child %d in %v", parent, child, order)
		}
	}
	if order[0] != topo.Root {
		t.Errorf("root not first: %v", order)
	}
}

// Property: random trees (built by attaching each node to a random earlier
// node) validate and BFS order visits every node exactly once, parents
// before children.
func TestQuickRandomTreeInvariants(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%30) + 1
		rng := rand.New(rand.NewSource(seed))
		topo := &Topology{
			Session:   0,
			Root:      0,
			Parent:    map[NodeID]NodeID{},
			Children:  map[NodeID][]NodeID{},
			Receivers: map[NodeID]bool{},
		}
		for i := 1; i < n; i++ {
			p := NodeID(rng.Intn(i))
			topo.Parent[NodeID(i)] = p
			topo.Children[p] = append(topo.Children[p], NodeID(i))
		}
		if err := topo.Validate(); err != nil {
			return false
		}
		order := topo.BFSOrder()
		if len(order) != n {
			return false
		}
		pos := map[NodeID]int{}
		for i, id := range order {
			if _, dup := pos[id]; dup {
				return false
			}
			pos[id] = i
		}
		for child, parent := range topo.Parent {
			if pos[parent] >= pos[child] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIsLeafAndEdgeTo(t *testing.T) {
	topo := star(0, 2)
	if !topo.IsLeaf(2) || topo.IsLeaf(1) || topo.IsLeaf(0) {
		t.Error("IsLeaf misclassifies")
	}
	e, ok := topo.EdgeTo(2)
	if !ok || e.From != 1 || e.To != 2 {
		t.Errorf("EdgeTo(2) = %v, %v", e, ok)
	}
	if _, ok := topo.EdgeTo(0); ok {
		t.Error("root has an incoming edge")
	}
	if e.String() != "1->2" {
		t.Errorf("Edge.String = %q", e.String())
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
