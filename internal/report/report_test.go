package report

import (
	"math"
	"strings"
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

func TestLossReportRate(t *testing.T) {
	cases := []struct {
		bytes    int64
		interval sim.Time
		want     float64
	}{
		{12_000, sim.Second, 96_000},
		{0, sim.Second, 0},
		{1000, 0, 0},           // guard: zero interval
		{1000, -sim.Second, 0}, // guard: negative interval
		{250_000, 2 * sim.Second, 1e6},
	}
	for _, c := range cases {
		r := LossReport{Bytes: c.bytes, Interval: c.interval}
		if got := r.Rate(); got != c.want {
			t.Errorf("Rate(%d bytes, %v) = %g, want %g", c.bytes, c.interval, got, c.want)
		}
	}
}

func TestPayloadStrings(t *testing.T) {
	reg := Register{Node: 3, Session: 1, Level: 2}
	if s := reg.String(); !strings.Contains(s, "node=3") || !strings.Contains(s, "lvl=2") {
		t.Errorf("Register.String = %q", s)
	}
	lr := LossReport{Node: 4, Session: 2, Level: 3, LossRate: 0.125, Bytes: 999}
	if s := lr.String(); !strings.Contains(s, "loss=0.125") || !strings.Contains(s, "bytes=999") {
		t.Errorf("LossReport.String = %q", s)
	}
	sg := Suggestion{Node: 5, Session: 0, Level: 4}
	if s := sg.String(); !strings.Contains(s, "lvl=4") {
		t.Errorf("Suggestion.String = %q", s)
	}
}

func TestNewControlPacket(t *testing.T) {
	payload := Suggestion{Node: 7, Session: 1, Level: 3}
	p := NewControlPacket(2, 7, SuggestionSize, 5*sim.Second, payload)
	if p.Kind != netsim.Control {
		t.Error("not a control packet")
	}
	if p.Src != 2 || p.Dst != 7 {
		t.Errorf("addressing: %d -> %d", p.Src, p.Dst)
	}
	if p.Group != netsim.NoGroup || p.Multicast() {
		t.Error("control packet must be unicast")
	}
	if p.Size != SuggestionSize || p.Sent != 5*sim.Second {
		t.Errorf("size/time: %d, %v", p.Size, p.Sent)
	}
	// Every receiver-controller payload travels as a pointer, whichever way
	// the packet was made.
	if got, ok := p.Payload.(*Suggestion); !ok || *got != payload {
		t.Errorf("payload round trip: %#v", p.Payload)
	}
	lr := LossReport{Node: 3, Level: 2, LossRate: 0.25}
	if got, ok := NewControlPacket(3, 0, LossReportSize, 0, lr).Payload.(*LossReport); !ok || *got != lr {
		t.Errorf("loss report not normalised to a pointer: %#v", got)
	}
	// Packet and report are one object: with the caller's boxing of the
	// value, the literal path costs the two allocations it always did.
	if got := testing.AllocsPerRun(100, func() { NewControlPacket(3, 0, LossReportSize, 0, lr) }); got > 2 {
		t.Errorf("literal loss-report packet costs %v allocations, want at most 2", got)
	}
	reg := Register{Node: 3, Level: 1}
	if got, ok := NewControlPacket(3, 0, RegisterSize, 0, reg).Payload.(*Register); !ok || *got != reg {
		t.Errorf("register not normalised to a pointer: %#v", got)
	}
	dereg := Deregister{Node: 3, Session: 1}
	if got, ok := NewControlPacket(3, 0, DeregisterSize, 0, dereg).Payload.(*Deregister); !ok || *got != dereg {
		t.Errorf("deregister not normalised to a pointer: %#v", got)
	}
}

// keeper is an agent that breaks the ownership rule: it keeps the payload
// pointer beyond the delivery callback.
type keeper struct{ rep *LossReport }

func (k *keeper) Recv(p *netsim.Packet) {
	if pl, ok := p.Payload.(*LossReport); ok {
		k.rep = pl
	}
}

func TestPooledControlPackets(t *testing.T) {
	e := sim.NewEngine(1)
	n := netsim.New(e)
	a, b := n.AddNode("a"), n.AddNode("b")
	n.Connect(a, b, netsim.LinkConfig{Bandwidth: 1e6, Delay: sim.Millisecond})
	var k keeper
	b.AttachAgent(&k)

	pkt := NewLossReportPacket(n, a.ID, b.ID, e.Now(), LossReport{Node: a.ID, Session: 2, Level: 3, LossRate: 0.5, Bytes: 900})
	if !pkt.Pooled() || pkt.Kind != netsim.Control || pkt.Size != LossReportSize || pkt.Dst != b.ID || pkt.Multicast() {
		t.Errorf("loss report packet: %+v", pkt)
	}
	a.SendUnicast(pkt)
	pkt.Release()
	e.Run()
	if k.rep == nil {
		t.Fatal("report not delivered")
	}
	// In a test binary a recycled packet's payload storage is poisoned, so
	// the kept pointer cannot pass for the report that was delivered.
	if k.rep.Node >= 0 || !math.IsNaN(k.rep.LossRate) {
		t.Errorf("kept report still reads as data after the packet was recycled: %+v", *k.rep)
	}
	if n.PacketsLive() != 0 {
		t.Errorf("PacketsLive = %d after the drain", n.PacketsLive())
	}

	// The next control packet reuses both the struct and its storage.
	allocs := n.PacketAllocs()
	want := Suggestion{Node: a.ID, Session: 2, Level: 4}
	pkt = NewSuggestionPacket(n, b.ID, a.ID, e.Now(), want)
	if got, ok := pkt.Payload.(*Suggestion); !ok || *got != want || pkt.Size != SuggestionSize {
		t.Errorf("suggestion packet: %+v", pkt)
	}
	if n.PacketAllocs() != allocs || n.PacketsLive() != 1 {
		t.Errorf("packet not recycled: allocs %d -> %d, live %d", allocs, n.PacketAllocs(), n.PacketsLive())
	}
	pkt.Release()

	if got := testing.AllocsPerRun(100, func() {
		pkt := NewLossReportPacket(n, a.ID, b.ID, e.Now(), LossReport{Node: a.ID})
		a.SendUnicast(pkt)
		pkt.Release()
		e.Run()
	}); got != 0 {
		t.Errorf("steady-state pooled report costs %v allocs, want 0", got)
	}

	// Register and Deregister ride the same storage, as pointers.
	reg := Register{Node: a.ID, Session: 2, Level: 1}
	dereg := Deregister{Node: a.ID, Session: 2}
	if got := testing.AllocsPerRun(100, func() {
		p := NewRegisterPacket(n, a.ID, b.ID, e.Now(), reg)
		if got, ok := p.Payload.(*Register); !ok || *got != reg || p.Size != RegisterSize {
			t.Errorf("register packet: %+v", p)
		}
		a.SendUnicast(p)
		p.Release()
		p = NewDeregisterPacket(n, a.ID, b.ID, e.Now(), dereg)
		if got, ok := p.Payload.(*Deregister); !ok || *got != dereg || p.Size != DeregisterSize {
			t.Errorf("deregister packet: %+v", p)
		}
		a.SendUnicast(p)
		p.Release()
		e.Run()
	}); got != 0 {
		t.Errorf("steady-state pooled register + deregister cost %v allocs, want 0", got)
	}
}

func TestWireSizesAreSmall(t *testing.T) {
	// Control traffic must stay negligible next to 1000-byte media packets:
	// the paper requires per-interval control traffic linear in receivers
	// and small.
	for name, size := range map[string]int{
		"register":   RegisterSize,
		"loss":       LossReportSize,
		"suggestion": SuggestionSize,
	} {
		if size <= 0 || size > 200 {
			t.Errorf("%s wire size %d out of sane range", name, size)
		}
	}
}
