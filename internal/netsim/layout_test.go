package netsim

import (
	"testing"
	"unsafe"

	"toposense/internal/sim"
)

// A packet-hop's cost is first touches of its link and of the node it
// arrives at, so what the hop reads is packed at the front of both structs.
// These pins keep a new field from splitting that prefix silently: add cold
// state below the hot block, or move the limit knowingly.

// TestLinkHotLayout: everything Send, book and deliverHead read on the
// no-outage, no-full-queue path — the waiting count, the inline ring slots
// and the serialization-time memo included — ends inside the link's first
// four cache lines.
func TestLinkHotLayout(t *testing.T) {
	var l Link
	end := func(off, size uintptr) uintptr { return off + size }
	hot := map[string]uintptr{
		"sched":     end(unsafe.Offsetof(l.sched), unsafe.Sizeof(l.sched)),
		"freeAt":    end(unsafe.Offsetof(l.freeAt), unsafe.Sizeof(l.freeAt)),
		"down":      end(unsafe.Offsetof(l.down), unsafe.Sizeof(l.down)),
		"orphans":   end(unsafe.Offsetof(l.orphans), unsafe.Sizeof(l.orphans)),
		"nextStart": end(unsafe.Offsetof(l.nextStart), unsafe.Sizeof(l.nextStart)),
		"waiting":   end(unsafe.Offsetof(l.waiting), unsafe.Sizeof(l.waiting)),
		"stats":     end(unsafe.Offsetof(l.stats), unsafe.Sizeof(l.stats)),
		"bandwidth": end(unsafe.Offsetof(l.bandwidth), unsafe.Sizeof(l.bandwidth)),
		"Delay":     end(unsafe.Offsetof(l.Delay), unsafe.Sizeof(l.Delay)),
		"txSize":    end(unsafe.Offsetof(l.txSize), unsafe.Sizeof(l.txSize)),
		"txTime":    end(unsafe.Offsetof(l.txTime), unsafe.Sizeof(l.txTime)),
		"mu":        end(unsafe.Offsetof(l.mu), unsafe.Sizeof(l.mu)),
		"inflight":  end(unsafe.Offsetof(l.inflight), unsafe.Sizeof(l.inflight)),
		"pipe":      end(unsafe.Offsetof(l.pipe), unsafe.Sizeof(l.pipe)),
		"dsched":    end(unsafe.Offsetof(l.dsched), unsafe.Sizeof(l.dsched)),
		"to":        end(unsafe.Offsetof(l.to), unsafe.Sizeof(l.to)),
		"probes":    end(unsafe.Offsetof(l.probes), unsafe.Sizeof(l.probes)),
		"net":       end(unsafe.Offsetof(l.net), unsafe.Sizeof(l.net)),
		// The multicast handler's no-echo check reads From on every
		// multicast arrival.
		"From": end(unsafe.Offsetof(l.From), unsafe.Sizeof(l.From)),
	}
	for name, e := range hot {
		if e > 256 {
			t.Errorf("Link.%s ends at byte %d, outside the 256-byte hot block", name, e)
		}
	}
	// The cold tail must not sit in front of anything hot either.
	for name, off := range map[string]uintptr{
		"squelch":   unsafe.Offsetof(l.squelch),
		"aborted":   unsafe.Offsetof(l.aborted),
		"recvSched": unsafe.Offsetof(l.recvSched),
	} {
		if off < 256 {
			t.Errorf("cold field Link.%s at byte %d sits inside the hot block", name, off)
		}
	}
	// Links are carved one after another from the network's blocks: at a
	// multiple of 64 bytes each link's hot block starts where the one
	// before it ends, on the same cache-line phase as the block's first.
	if got := unsafe.Sizeof(l); got > 320 || got%64 != 0 {
		t.Errorf("Link is %d bytes; want a multiple of 64, at most 320", got)
	}
}

// TestNodeHotLayout: what deliver, route and the multicast handler read —
// the next-hop memo included — is in the node's first cache line, and the
// node stays at 144 bytes, the stride its blocks carve it at. The out-link table sits
// below: only the memo's miss path reads it.
func TestNodeHotLayout(t *testing.T) {
	var n Node
	for name, e := range map[string]uintptr{
		"ID":         unsafe.Offsetof(n.ID) + unsafe.Sizeof(n.ID),
		"routeDst":   unsafe.Offsetof(n.routeDst) + unsafe.Sizeof(n.routeDst),
		"net":        unsafe.Offsetof(n.net) + unsafe.Sizeof(n.net),
		"mcast":      unsafe.Offsetof(n.mcast) + unsafe.Sizeof(n.mcast),
		"transit":    unsafe.Offsetof(n.transit) + unsafe.Sizeof(n.transit),
		"routeLink":  unsafe.Offsetof(n.routeLink) + unsafe.Sizeof(n.routeLink),
		"routeEpoch": unsafe.Offsetof(n.routeEpoch) + unsafe.Sizeof(n.routeEpoch),
	} {
		if e > 64 {
			t.Errorf("Node.%s ends at byte %d, outside the first cache line", name, e)
		}
	}
	if got := unsafe.Sizeof(n); got > 144 {
		t.Errorf("Node is %d bytes; above 144 every carved node grows with it", got)
	}
}

// TestCarvedAlignment: carved links start on a cache line, so each one's
// hot block covers four whole lines, and carved nodes sit at the phases a
// 144-byte stride from a line boundary gives, in every block size.
func TestCarvedAlignment(t *testing.T) {
	n := New(sim.NewEngine(1))
	prev := n.AddNode("root")
	for i := 0; i < 2000; i++ { // through every block size
		node := n.AddNode("n")
		if p := uintptr(unsafe.Pointer(node)); p%16 != 0 {
			t.Fatalf("node %d at %#x, off the 16-byte phases", node.ID, p)
		}
		ab, ba := n.Connect(prev, node, LinkConfig{Bandwidth: 1e6})
		for _, l := range []*Link{ab, ba} {
			if p := uintptr(unsafe.Pointer(l)); p%64 != 0 {
				t.Fatalf("link %v at %#x is not on a cache line", l, p)
			}
		}
		if i%3 == 0 {
			prev = node
		}
	}
}

// TestPacketSize pins Packet to the 112-byte allocation class it had before
// the side-car: every literal and pooled packet is one of these, and one
// more word would round each up to 128.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 112 {
		t.Errorf("Packet is %d bytes, want at most 112", got)
	}
}
