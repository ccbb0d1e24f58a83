package netsim

import "unsafe"

// A network's nodes, links and agent lists live as long as the network, so
// they are carved in creation order from blocks instead of being allocated
// one at a time. A new block holds about a sixteenth of what the network
// already holds of its kind, rounded down to a size the kind offers, from
// 1 up to a cap of 16 KB: a network of a few dozen nodes allocates them
// one by one, as it did before blocks, so a 34-node world zeroes no block
// tail it never uses, and a large one leaves at most a sixteenth of what
// it holds, and at most one block, unused.

// carve returns a fresh object from the block rest blk, first cutting a
// new block of newBlock(held) when it is used up; held is how many the
// network holds already.
func carve[T any](blk *[]T, held int, newBlock func(held int) []T) *T {
	if len(*blk) == 0 {
		*blk = newBlock(held)
	}
	p := &(*blk)[0]
	*blk = (*blk)[1:]
	return p
}

// lineBlock is a block of objects whose first starts on a cache line. The
// allocator puts an 8-byte type header in front of every pointerful object
// above 512 bytes, and the pad fills the rest of that line; every size
// class a block falls in is a multiple of 64 bytes, starting from a
// page-aligned span. A Link, 320 bytes, then has its delivery line and
// its Send block on whole lines, and a Node, 144 bytes, its first 64 on
// one line in every fourth node, as when each had an allocation of its
// own.
type lineBlock[A any] struct {
	_    [56]byte
	objs A
}

// lined makes a lineBlock holding the array A of T and returns the array.
func lined[T, A any]() []T {
	b := new(lineBlock[A])
	var t T
	return unsafe.Slice((*T)(unsafe.Pointer(&b.objs)), unsafe.Sizeof(b.objs)/unsafe.Sizeof(t))
}

// The block sizes below are the ones whose lineBlock fills a size class
// to within 64 bytes, pad and header included: no block strands more
// than a line.

// linkBlock cuts the next block of links: 1 (320 bytes, a size class of
// its own with no header), 4, 8, 15, 21, then 51 (the 16 KB class).
func linkBlock(held int) []Link {
	switch n := held / 16; {
	case n < 4:
		return make([]Link, 1)
	case n < 8:
		return lined[Link, [4]Link]()
	case n < 15:
		return lined[Link, [8]Link]()
	case n < 21:
		return lined[Link, [15]Link]()
	case n < 51:
		return lined[Link, [21]Link]()
	default:
		return lined[Link, [51]Link]()
	}
}

// nodeBlock cuts the next block of nodes: 1 (the 144-byte size class), 4,
// 8, 18, 33, 56, then 113 (the 16 KB class).
func nodeBlock(held int) []Node {
	switch n := held / 16; {
	case n < 4:
		return make([]Node, 1)
	case n < 8:
		return lined[Node, [4]Node]()
	case n < 18:
		return lined[Node, [8]Node]()
	case n < 33:
		return lined[Node, [18]Node]()
	case n < 56:
		return lined[Node, [33]Node]()
	case n < 113:
		return lined[Node, [56]Node]()
	default:
		return lined[Node, [113]Node]()
	}
}

// agentShare carves an exact-length agent list of k entries from the
// network's agent blocks: 8 entries while the network holds fewer than 31,
// then 31, 63, 127 and 255 (each, with the allocator's header above 512
// bytes, within 8 bytes of its size class). A list of more than 8 is rare
// and made on its own. A one-entry list is a share some node outgrew, when
// there is one (giveAgentShare).
func (n *Network) agentShare(k int) []Agent {
	if k == 1 && n.agentOnes != nil {
		s := n.agentOnes
		n.agentOnes = (*s).(agentHole).next
		*s = nil
		return unsafe.Slice(s, 1)
	}
	if k > len(n.agentBlk) {
		if k > 8 {
			return make([]Agent, k)
		}
		size := 8
		for _, c := range [...]int{31, 63, 127, 255} {
			if n.agentsHeld >= c {
				size = c
			}
		}
		n.agentBlk = make([]Agent, size)
	}
	s := n.agentBlk[:k:k]
	n.agentBlk = n.agentBlk[k:]
	n.agentsHeld += k
	return s
}

// giveAgentShare takes back a share AttachAgent moved a list off, which
// nothing reads any more. A one-entry share goes on the network's list of
// them for the next node's first agent: a world attaches its receivers,
// then an agent on every node, so each receiver host outgrows a
// one-entry share just before a router takes its first.
func (n *Network) giveAgentShare(s []Agent) {
	clear(s)
	if cap(s) == 1 {
		s[0] = agentHole{n.agentOnes}
		n.agentOnes = &s[0]
	}
}

// agentHole fills a one-entry share on the network's list of them and
// links it to the next (Network.agentOnes). A struct of one pointer is
// stored in an interface as is, so filing a share allocates nothing.
type agentHole struct{ next *Agent }

func (agentHole) Recv(*Packet) {}
