package mcast

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// The differential check of the forwarding state: a script of joins,
// leaves, group registrations, downlinks added over one-way uplinks and
// link failures and repairs runs on a Domain, while a map-of-sets
// reference keeps only who is a member where. At quiescence the Domain's
// entries must be exactly what the reference implies, their child tables
// ascending, and no two live rows, child tables or member lists may share
// memory — the failure carving arrays from shared blocks invites.
//
// The network is a tree rooted at node 0, the source of every group, so
// the route from any node toward a source is its tree path and the
// expected tree is closed-form. Some tree edges start as one-way uplinks
// (child to parent only) until a script adds the downlink.

// fwdScript is one decoded script's network and reference.
type fwdScript struct {
	e       *sim.Engine
	net     *netsim.Network
	d       *Domain
	n       int
	parent  []netsim.NodeID          // tree parent; NoNode for the root
	up      []*netsim.Link           // node -> parent
	down    []*netsim.Link           // parent -> node; nil while one-way
	slots   [][2]*memberRec          // two members per node
	groups  []netsim.GroupID         // registered, in order
	members []map[netsim.GroupID]int // node -> group -> bitmask of joined slots
}

// runForwardingScript decodes and runs script:
//
//	byte 0        node count, 2 + b%15
//	byte i ≤ n-1  node i's tree parent b%i; bit 7 set: one-way uplink
//	then three bytes an operation (op, x, y), waiting (op/6)%8 × 20 ms after:
//	0 register group (x%4, y%4)          3 add the downlink of node x's edge
//	1 join node x, group y, slot y/16    4 fail node x's uplink (y even) or downlink
//	2 leave node x, group y, slot y/16   5 repair that link
//
// then checks the state and delivery at quiescence.
func runForwardingScript(t testing.TB, script []byte) {
	if len(script) < 1 {
		return
	}
	s := &fwdScript{e: sim.NewEngine(1)}
	s.net = netsim.New(s.e)
	s.n = 2 + int(script[0])%15
	script = script[1:]
	cfg := netsim.LinkConfig{Bandwidth: 100e6, Delay: sim.Millisecond, QueueLimit: 1000}
	s.parent = make([]netsim.NodeID, s.n)
	s.up = make([]*netsim.Link, s.n)
	s.down = make([]*netsim.Link, s.n)
	s.slots = make([][2]*memberRec, s.n)
	s.members = make([]map[netsim.GroupID]int, s.n)
	nodes := make([]*netsim.Node, s.n)
	for i := range nodes {
		nodes[i] = s.net.AddNode(fmt.Sprint("n", i))
		s.slots[i] = [2]*memberRec{{}, {}}
		s.members[i] = map[netsim.GroupID]int{}
	}
	s.parent[0] = netsim.NoNode
	for i := 1; i < s.n; i++ {
		var b byte
		if len(script) > 0 {
			b, script = script[0], script[1:]
		}
		p := int(b&0x7f) % i
		s.parent[i] = netsim.NodeID(p)
		s.up[i] = s.net.ConnectAsym(nodes[i], nodes[p], cfg)
		if b&0x80 == 0 {
			s.down[i] = s.net.ConnectAsym(nodes[p], nodes[i], cfg)
		}
	}
	s.d = NewDomain(s.net)
	s.d.LeaveLatency = 100 * sim.Millisecond
	s.groups = append(s.groups, s.d.RegisterGroup(0, 0, 0))

	for pc := 0; pc+2 < len(script); pc += 3 {
		op, x, y := script[pc], script[pc+1], script[pc+2]
		node := netsim.NodeID(int(x) % s.n)
		edge := 1 + int(x)%(s.n-1) // a non-root node: its tree edge
		g := s.groups[int(y)%len(s.groups)]
		slot := int(y/16) % 2
		switch op % 6 {
		case 0:
			g := s.d.RegisterGroup(int(x%4), int(y%4), 0)
			if int(g) == len(s.groups) {
				s.groups = append(s.groups, g)
			}
		case 1:
			s.d.Join(node, g, s.slots[node][slot])
			s.members[node][g] |= 1 << slot
		case 2:
			s.d.Leave(node, g, s.slots[node][slot])
			s.members[node][g] &^= 1 << slot
		case 3:
			if s.down[edge] == nil {
				s.down[edge] = s.net.ConnectAsym(nodes[s.parent[edge]], nodes[edge], cfg)
			}
		case 4, 5:
			l := s.up[edge]
			if y%2 == 1 {
				l = s.down[edge]
			}
			if l == nil {
				break
			}
			if op%6 == 4 {
				l.SetDown()
			} else {
				l.SetUp()
			}
		}
		s.e.RunUntil(s.e.Now() + sim.Time(op/6%8)*20*sim.Millisecond)
	}
	s.e.RunUntil(s.e.Now() + 10*sim.Second)
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
	if err := s.checkDelivery(nodes[0]); err != nil {
		t.Fatal(err)
	}
}

// connected reports whether n reaches the root over uplinks that are up.
func (s *fwdScript) connected(n netsim.NodeID) bool {
	for ; n != 0; n = s.parent[n] {
		if s.up[n].Down() {
			return false
		}
	}
	return true
}

// reached reports whether a packet from the root reaches n: every
// downlink on the path exists and is up.
func (s *fwdScript) reached(n netsim.NodeID) bool {
	for ; n != 0; n = s.parent[n] {
		if s.down[n] == nil || s.down[n].Down() {
			return false
		}
	}
	return true
}

// onTree is the reference tree of group g: every connected node with a
// member of g, and every node on such a node's path to the root.
func (s *fwdScript) onTree(g netsim.GroupID) []bool {
	on := make([]bool, s.n)
	for n := 0; n < s.n; n++ {
		if s.members[n][g] == 0 || !s.connected(netsim.NodeID(n)) {
			continue
		}
		for c := netsim.NodeID(n); c != netsim.NoNode && !on[c]; c = s.parent[c] {
			on[c] = true
		}
	}
	return on
}

// span is the memory one live array covers.
type span struct {
	lo, hi uintptr
	what   string
}

func spanOf[T any](a []T, what string) (span, bool) {
	if cap(a) == 0 {
		return span{}, false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	return span{lo, lo + uintptr(cap(a))*unsafe.Sizeof(a[:1][0]), what}, true
}

// check compares every (node, group) entry with the reference.
func (s *fwdScript) check() error {
	var spans []span
	add := func(sp span, ok bool) {
		if ok {
			spans = append(spans, sp)
		}
	}
	entries := 0
	for n := 0; n < s.n; n++ {
		add(spanOf(s.d.state[n], fmt.Sprintf("row of node %d", n)))
		for _, st := range s.d.state[n] {
			if st != nil {
				entries++
			}
		}
	}
	if got := s.d.StateStats().Entries; got != entries {
		return fmt.Errorf("StateStats counts %d entries, the rows hold %d", got, entries)
	}
	for _, g := range s.groups {
		on := s.onTree(g)
		for n := 0; n < s.n; n++ {
			id := netsim.NodeID(n)
			st := s.d.lookup(id, g)
			mask := s.members[n][g]
			if st == nil {
				if mask != 0 || on[n] {
					return fmt.Errorf("node %d group %d: no entry, reference has members %b, on tree %v", n, g, mask, on[n])
				}
				continue
			}
			add(spanOf(st.children, fmt.Sprintf("children of %d/%d", n, g)))
			add(spanOf(st.members, fmt.Sprintf("members of %d/%d", n, g)))

			var got int
			for _, m := range st.members {
				switch m {
				case s.slots[n][0]:
					got |= 1
				case s.slots[n][1]:
					got |= 2
				default:
					return fmt.Errorf("node %d group %d: a member that never joined there", n, g)
				}
			}
			if got != mask || len(st.members) != popcount(mask) {
				return fmt.Errorf("node %d group %d: members %b (%d), reference %b", n, g, got, len(st.members), mask)
			}

			var want []netsim.NodeID
			if on[n] {
				for c := 1; c < s.n; c++ {
					if on[c] && s.parent[c] == id {
						want = append(want, netsim.NodeID(c))
					}
				}
			}
			have := s.d.ForwardingChildren(id, g)
			if !sort.SliceIsSorted(have, func(i, j int) bool { return have[i] < have[j] }) {
				return fmt.Errorf("node %d group %d: children %v out of order", n, g, have)
			}
			if fmt.Sprint(have) != fmt.Sprint(want) {
				return fmt.Errorf("node %d group %d: children %v, reference %v", n, g, have, want)
			}
			for _, c := range st.children {
				if c.link != nil && c.link != s.down[c.node] {
					return fmt.Errorf("node %d group %d: child %d holds link %v", n, g, c.node, c.link)
				}
			}

			wantParent := netsim.NoNode
			if on[n] && n != 0 {
				wantParent = s.parent[n]
			}
			if st.parent != wantParent {
				return fmt.Errorf("node %d group %d: parent %d, reference %d", n, g, st.parent, wantParent)
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return fmt.Errorf("%s and %s share memory", spans[i-1].what, spans[i].what)
		}
	}
	return nil
}

// checkDelivery sends one packet per group from the root: a member gets
// it exactly when the reference says its node is reached.
func (s *fwdScript) checkDelivery(root *netsim.Node) error {
	for n := range s.slots {
		for _, m := range s.slots[n] {
			m.got = nil
		}
	}
	for _, g := range s.groups {
		session, layer := s.d.SessionLayer(g)
		root.SendMulticastLocal(&netsim.Packet{
			Kind: netsim.Data, Src: 0, Dst: netsim.NoNode,
			Group: g, Session: session, Layer: layer, Size: 100, Sent: s.e.Now(),
		})
	}
	s.e.RunUntil(s.e.Now() + sim.Second)
	for n := range s.slots {
		for slot, m := range s.slots[n] {
			for _, g := range s.groups {
				want := 0
				if s.members[n][g]&(1<<slot) != 0 && s.connected(netsim.NodeID(n)) && s.reached(netsim.NodeID(n)) {
					want = 1
				}
				got := 0
				for _, p := range m.got {
					if p.Group == g {
						got++
					}
				}
				if got != want {
					return fmt.Errorf("node %d slot %d group %d: %d copies, want %d", n, slot, g, got, want)
				}
			}
		}
	}
	return nil
}

func popcount(mask int) int {
	c := 0
	for ; mask != 0; mask &= mask - 1 {
		c++
	}
	return c
}

// forwardingSeeds are FuzzForwardingState's committed corpus.
var forwardingSeeds = [][]byte{
	// A chain of 4 whose last edge is a one-way uplink: the member below it
	// is grafted with no link and nothing reaches it.
	{2, 0, 1, 0x82, 1, 3, 0},
	// The same, then the downlink is added after the graft landed: the
	// packet at the end resolves the child's link and reaches the member.
	{2, 0, 1, 0x82, 13, 3, 0, 3, 2, 0},
	// A star of 9 under the root, eight groups: leaf i joins group i-1 and
	// group 0, so the root's group-0 child table grows through four
	// classes and its row past rowMin.
	{7, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 1, 0, 0, 1, 1, 0, 1, 2, 0, 1, 3,
		1, 1, 0, 1, 2, 1, 1, 3, 2, 1, 4, 3, 1, 5, 4, 1, 6, 5, 1, 7, 6, 1, 8, 7,
		1, 2, 0, 1, 3, 0, 1, 4, 0, 1, 5, 0, 1, 6, 0, 1, 7, 0, 1, 8, 0},
	// Two members at node 7, one leaves; node 4's uplink fails, orphaning
	// node 7; node 5 leaves and rejoins inside the leave latency; the
	// uplink is repaired and node 7 grafts again.
	{6, 0, 1, 1, 2, 2, 1, 4,
		1, 7, 0, 1, 7, 16, 13, 5, 0, 2, 7, 16, 34, 3, 0, 2, 5, 0, 7, 5, 0, 35, 3, 0},
	// A failed downlink: the state stays, the member below it misses the
	// packet.
	{2, 0, 1, 2, 1, 3, 0, 16, 2, 1},
}

func FuzzForwardingState(f *testing.F) {
	for _, s := range forwardingSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 16+3*128 {
			script = script[:16+3*128]
		}
		runForwardingScript(t, script)
	})
}

// TestForwardingStateRandomScripts runs FuzzForwardingState's seeds and a
// few hundred random scripts without the fuzzing engine.
func TestForwardingStateRandomScripts(t *testing.T) {
	for i, s := range forwardingSeeds {
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) { runForwardingScript(t, s) })
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 300; i++ {
		script := make([]byte, 16+3*rng.Intn(80))
		rng.Read(script)
		runForwardingScript(t, script)
	}
}
