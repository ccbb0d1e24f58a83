package netsim

import (
	"reflect"
	"testing"
	"unsafe"

	"toposense/internal/sim"
)

// A packet-hop's cost is first touches of its link and of the node it
// arrives at, so what the hop reads is packed at the front of both structs.
// These pins keep a new field from splitting that prefix silently: add cold
// state below the hot blocks, or move the limit knowingly.

// TestLinkHotLayout pins the link's three blocks. Everything deliverHead
// reads on a single-shard link ends inside the first cache line, the one
// the engine reads one event ahead. Everything Send and book add for a
// packet that meets no outage and no full queue — the waiting count and the
// serialization-time memo included — ends inside the next two. The
// configuration and outage state the hot paths skip starts after them.
func TestLinkHotLayout(t *testing.T) {
	var l Link
	type field struct{ off, size uintptr }
	blocks := []struct {
		name     string
		from, to uintptr
		fields   map[string]field
	}{
		{"delivery line", 0, 64, map[string]field{
			"inflight": {unsafe.Offsetof(l.inflight), unsafe.Sizeof(l.inflight)},
			"pipe":     {unsafe.Offsetof(l.pipe), unsafe.Sizeof(l.pipe)},
			"to":       {unsafe.Offsetof(l.to), unsafe.Sizeof(l.to)},
			"orphans":  {unsafe.Offsetof(l.orphans), unsafe.Sizeof(l.orphans)},
			"locked":   {unsafe.Offsetof(l.locked), unsafe.Sizeof(l.locked)},
			"probed":   {unsafe.Offsetof(l.probed), unsafe.Sizeof(l.probed)},
			// Send reads down first; the delivery line is one it touches
			// anyway, when book pushes onto the ring.
			"down": {unsafe.Offsetof(l.down), unsafe.Sizeof(l.down)},
		}},
		{"Send block", 64, 192, map[string]field{
			"sched":     {unsafe.Offsetof(l.sched), unsafe.Sizeof(l.sched)},
			"dsched":    {unsafe.Offsetof(l.dsched), unsafe.Sizeof(l.dsched)},
			"freeAt":    {unsafe.Offsetof(l.freeAt), unsafe.Sizeof(l.freeAt)},
			"nextStart": {unsafe.Offsetof(l.nextStart), unsafe.Sizeof(l.nextStart)},
			"txTime":    {unsafe.Offsetof(l.txTime), unsafe.Sizeof(l.txTime)},
			"Delay":     {unsafe.Offsetof(l.Delay), unsafe.Sizeof(l.Delay)},
			"stats":     {unsafe.Offsetof(l.stats), unsafe.Sizeof(l.stats)},
			"waiting":   {unsafe.Offsetof(l.waiting), unsafe.Sizeof(l.waiting)},
			"txSize":    {unsafe.Offsetof(l.txSize), unsafe.Sizeof(l.txSize)},
			"net":       {unsafe.Offsetof(l.net), unsafe.Sizeof(l.net)},
			// The multicast handler's no-echo check reads From on every
			// arrival at a router.
			"From": {unsafe.Offsetof(l.From), unsafe.Sizeof(l.From)},
		}},
		{"cold tail", 192, 320, map[string]field{
			"To":         {unsafe.Offsetof(l.To), unsafe.Sizeof(l.To)},
			"QueueLimit": {unsafe.Offsetof(l.QueueLimit), unsafe.Sizeof(l.QueueLimit)},
			"Policy":     {unsafe.Offsetof(l.Policy), unsafe.Sizeof(l.Policy)},
			"mu":         {unsafe.Offsetof(l.mu), unsafe.Sizeof(l.mu)},
			"probes":     {unsafe.Offsetof(l.probes), unsafe.Sizeof(l.probes)},
			"bandwidth":  {unsafe.Offsetof(l.bandwidth), unsafe.Sizeof(l.bandwidth)},
			"squelch":    {unsafe.Offsetof(l.squelch), unsafe.Sizeof(l.squelch)},
			"aborted":    {unsafe.Offsetof(l.aborted), unsafe.Sizeof(l.aborted)},
			"recvSched":  {unsafe.Offsetof(l.recvSched), unsafe.Sizeof(l.recvSched)},
			"nextOut":    {unsafe.Offsetof(l.nextOut), unsafe.Sizeof(l.nextOut)},
		}},
	}
	placed := map[string]bool{"_": true}
	for _, b := range blocks {
		for name, f := range b.fields {
			placed[name] = true
			if f.off < b.from || f.off+f.size > b.to {
				t.Errorf("Link.%s spans bytes %d-%d, outside the %s (%d-%d)", name, f.off, f.off+f.size, b.name, b.from, b.to)
			}
		}
	}
	// A new field has to be placed in one of the blocks on purpose.
	for _, f := range reflect.VisibleFields(reflect.TypeOf(l)) {
		if !placed[f.Name] {
			t.Errorf("Link.%s is in none of the blocks this test pins", f.Name)
		}
	}
	// Links are carved one after another from the network's blocks, on a
	// cache line: at a multiple of 64 bytes every link's blocks start
	// where the first link's do, and 320 bytes is the allocator's size
	// class for a link of its own.
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
// delivery line and Send block are whole lines, and carved nodes sit at the phases a
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
