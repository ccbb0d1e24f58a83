package netsim

import (
	"testing"
	"unsafe"
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
	if got := unsafe.Sizeof(l); got > 320 {
		t.Errorf("Link is %d bytes; above 320 it moves up an allocation size class", got)
	}
}

// TestNodeHotLayout: what deliver, route and the multicast handler read —
// the next-hop memo included — is in the node's first cache line, and the
// node stays in the 144-byte allocation size class. The out-link table sits
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
		t.Errorf("Node is %d bytes; above 144 it moves up an allocation size class", got)
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
