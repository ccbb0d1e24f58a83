package netsim

import (
	"math/bits"
	"math/rand"
	"testing"

	"toposense/internal/sim"
)

func nextPow2(n int) int { return 1 << bits.Len(uint(n-1)) }

// TestPktRing drives the ring and a plain slice through the same random
// pushes, pops and in-place replacements. Bursts of pushes between pops make
// the ring double while its contents straddle the end of the backing array;
// it must stay FIFO, address the i-th oldest packet correctly, clear what it
// pops, and never hold more slots than the next power of two above the most
// packets it held at once.
func TestPktRing(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r pktRing
		pool := sim.NewArrayPool(junkPacket)
		var model []*Packet
		peak, grewWrapped := 0, false
		for op := 0; op < 2000; op++ {
			switch k := rng.Intn(10); {
			case k < 5 || len(model) == 0:
				for burst := 1 + rng.Intn(1+op/100); burst > 0; burst-- {
					if int(r.n) == len(r.buf) && r.head != 0 {
						grewWrapped = true
					}
					p := &Packet{Seq: int64(op)}
					r.push(p, pool)
					model = append(model, p)
				}
			case k < 9:
				slot := r.at(0)
				if got := r.pop(); got != model[0] {
					t.Fatalf("seed %d op %d: popped %v, want %v", seed, op, got, model[0])
				}
				if *slot != nil {
					t.Fatalf("seed %d op %d: pop left its slot holding the packet", seed, op)
				}
				model = model[1:]
			default:
				i := rng.Intn(len(model))
				p := &Packet{Seq: -int64(op)}
				*r.at(i), model[i] = p, p
			}
			if len(model) > peak {
				peak = len(model)
			}
			if int(r.n) != len(model) {
				t.Fatalf("seed %d op %d: ring holds %d, model %d", seed, op, r.n, len(model))
			}
			for i, want := range model {
				if got := *r.at(i); got != want {
					t.Fatalf("seed %d op %d: at(%d) = %v, want %v", seed, op, i, got, want)
				}
			}
		}
		if want := max(4, nextPow2(peak)); len(r.buf) != want {
			t.Errorf("seed %d: %d slots for a peak of %d packets, want %d", seed, len(r.buf), peak, want)
		}
		if !grewWrapped {
			t.Errorf("seed %d: the ring never grew while wrapped", seed)
		}
	}
}

// saturator returns a function that offers l n more size-byte packets, one
// every gap, and returns once the last is delivered or dropped. The link
// must be busy at every arrival but the first of a call. peak keeps the
// largest array the link's ring has been on. Everything the offers need is
// bound here, so calls after the first allocate nothing unless the link does.
func saturator(tb testing.TB, e *sim.Engine, net *Network, l *Link, size int, gap sim.Time, peak *int) func(n int) {
	sent, first, target := 0, 0, 0
	var offer func()
	offer = func() {
		if sent > first && !l.Busy() {
			tb.Fatalf("link idle at packet %d", sent)
		}
		p := net.NewPacket()
		p.Kind, p.Src, p.Dst, p.Group, p.Size = Data, l.From, l.To, NoGroup, size
		l.Send(p)
		p.Release()
		*peak = max(*peak, len(l.inflight.buf))
		if sent++; sent < target {
			e.Schedule(gap, offer)
		}
	}
	return func(n int) {
		first, target = sent, sent+n
		e.Schedule(0, offer)
		e.Run()
	}
}

// saturatedLink is the link TestLinkMemoryBounded and BenchmarkSaturatedLink
// share: 1000-byte packets into 10 Mbit/s with a 10 ms pipe, offered at twice
// the bandwidth. It returns the offer function, the largest array the ring
// has been on so far, and the ring's bound: the next power of two above the
// bandwidth-delay product in packets, plus the one being serialized, one at
// the boundary instant and QueueLimit waiting.
func saturatedLink(tb testing.TB) (net *Network, l *Link, offer func(n int), peak *int, ringBound int) {
	const (
		size  = 1000
		bw    = 10e6
		delay = 10 * sim.Millisecond
	)
	e := sim.NewEngine(1)
	net = New(e)
	l = net.ConnectAsym(net.AddNode("a"), net.AddNode("b"), LinkConfig{Bandwidth: bw, Delay: delay})
	tx := sim.TransmitTime(size, bw)
	bdp := int((delay + tx - 1) / tx)
	peak = new(int)
	return net, l, saturator(tb, e, net, l, size, tx/2, peak), peak, nextPow2(bdp + 2 + l.QueueLimit)
}

// TestLinkMemoryBounded offers a link 10⁵ packets at twice its bandwidth, so
// it never idles and its queue stays full. Its ring must stay within the
// bound of what can be aboard at once — not, as the head-indexed slices the
// rings replaced did, grow with the run — and give its array back to the
// pool once the link drains.
func TestLinkMemoryBounded(t *testing.T) {
	const n = 100_000
	net, l, offer, peak, bound := saturatedLink(t)
	offer(n)
	st := l.Stats()
	if st.Delivered+st.Dropped != n || st.Dropped < n/3 || st.PeakQueue != DefaultQueueLimit {
		t.Fatalf("not the saturated run intended: %+v", st)
	}
	if *peak > bound {
		t.Errorf("ring capacity %d during %d packets, want at most %d", *peak, n, bound)
	}
	if &l.inflight.buf[0] != &l.pipe[0] {
		t.Errorf("drained ring on an array of %d slots, want the inline pair", len(l.inflight.buf))
	}
	if free, allocs := len(net.pktFree), net.PacketAllocs(); uint64(free) != allocs {
		t.Errorf("%d of %d pooled packets came back", free, allocs)
	}
}

// TestPipelineStartsInline: a link's first two packets aboard ride in the
// link's own slots, the third moves the ring to a 4-slot pool array, and the
// ring comes back to the inline pair when it empties. 100 B at 1 Mbit/s
// serialize in 800 µs; the pipe is 1 s long.
func TestPipelineStartsInline(t *testing.T) {
	e := sim.NewEngine(1)
	net := New(e)
	a, b := net.AddNode("a"), net.AddNode("b")
	l := net.ConnectAsym(a, b, LinkConfig{Bandwidth: 1e6, Delay: sim.Second})
	inline := func() bool { return &l.inflight.buf[0] == &l.pipe[0] }
	for k, want := range []bool{true, true, false} {
		p := net.NewPacket()
		p.Kind, p.Src, p.Dst, p.Group, p.Size = Control, a.ID, b.ID, NoGroup, 100
		l.Send(p)
		p.Release()
		e.RunUntil(sim.Time(k+1) * sim.Millisecond)
		if int(l.inflight.n) != k+1 || inline() != want {
			t.Fatalf("%d in flight (want %d), inline %v (want %v), ring of %d", l.inflight.n, k+1, inline(), want, len(l.inflight.buf))
		}
	}
	if len(l.inflight.buf) != 4 {
		t.Errorf("spilled ring has %d slots, want 4", len(l.inflight.buf))
	}
	spilled := l.inflight.buf
	e.Run()
	if l.Stats().Delivered != 3 || l.inflight.n != 0 || !inline() {
		t.Errorf("delivered %d, %d left in flight, inline %v; want 3, 0, true", l.Stats().Delivered, l.inflight.n, inline())
	}
	if got := net.rings.Get(4)[:4]; &got[0] != &spilled[0] {
		t.Errorf("the pool's next 4-slot array is not the one the ring gave back")
	}
}
