package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// Same-instant trains (see equeue): events scheduled for a remembered
// instant queue behind that instant's newest event and cost no tier entry.
// The random scripts in queue_test.go check the contract differentially;
// the tests here pin each rule on a script short enough to read.

// trainTiers are instants that park a train in each tier of a fresh engine.
var trainTiers = []struct {
	name string
	at   Time
	held string // tiers() with one train queued there
}{
	{"near", 5, "near 1 ring 0 far 0"},
	{"ring", bucketTime(7) + 3, "near 0 ring 1 far 0"},
	{"far", bucketTime(2*ringSize) + 3, "near 0 ring 0 far 1"},
}

// burst schedules n events at instant at, logging ids base.. as they fire.
func burst(e *Engine, log *[]int, at Time, base, n int) []Handle {
	hs := make([]Handle, n)
	for i := range hs {
		id := base + i
		hs[i] = e.At(at, Func(func() { *log = append(*log, id) }))
	}
	return hs
}

func TestTrainOneEntryPerInstant(t *testing.T) {
	for _, tier := range trainTiers {
		t.Run(tier.name, func(t *testing.T) {
			e := NewEngine(1)
			var log []int
			// Two instants interleaved: both remembered tails take appends.
			var hs []Handle
			for i := 0; i < 8; i++ {
				hs = append(hs, burst(e, &log, tier.at, 2*i, 1)[0], burst(e, &log, tier.at+1, 2*i+1, 1)[0])
			}
			if e.Pending() != 16 || e.Stats().Chained != 14 {
				t.Fatalf("Pending %d, Chained %d; want 16 events, 14 of them chained", e.Pending(), e.Stats().Chained)
			}
			if e.q.entries() != 2 {
				t.Fatalf("two instants are queued as %s", e.q.tiers())
			}
			for i, h := range hs {
				if !h.Active() || h.Cancelled() || h.When() != tier.at+Time(i%2) {
					t.Fatalf("event %d reads Active=%v Cancelled=%v When=%v", i, h.Active(), h.Cancelled(), h.When())
				}
			}
			// A third instant evicts the older tail; its instant's next event
			// starts a second train behind the first.
			burst(e, &log, tier.at+2, 100, 1)
			burst(e, &log, tier.at, 16, 2)
			if e.Stats().Chained != 15 {
				t.Fatalf("Chained %d after an eviction, want 15", e.Stats().Chained)
			}
			e.RunUntil(tier.at)
			if got, want := fmt.Sprint(log), "[0 2 4 6 8 10 12 14 16 17]"; got != want {
				t.Fatalf("fired %s at the first instant, want %s", got, want)
			}
			if e.Pending() != 9 || e.Fired() != 10 {
				t.Fatalf("Pending %d Fired %d, want 9 and 10", e.Pending(), e.Fired())
			}
			e.Run()
			if got, want := fmt.Sprint(log[10:]), "[1 3 5 7 9 11 13 15 100]"; got != want {
				t.Fatalf("then fired %s, want %s", got, want)
			}
		})
	}
}

// Cancelling a member unlinks it; cancelling the leader promotes its first
// member into the leader's queue entry; a cancelled tail is forgotten, so
// an append after it still lands in sequence order.
func TestTrainCancel(t *testing.T) {
	for _, tier := range trainTiers {
		t.Run(tier.name, func(t *testing.T) {
			e := NewEngine(1)
			var log []int
			hs := burst(e, &log, tier.at, 0, 6)
			slots := e.EventAllocs()
			for n, i := range []int{0, 2, 5, 1} { // leader, middle, tail, promoted leader
				e.Cancel(hs[i])
				if hs[i].Active() || !hs[i].Cancelled() || e.Pending() != 5-n {
					t.Fatalf("cancel %d: Active=%v Cancelled=%v Pending=%d", i, hs[i].Active(), hs[i].Cancelled(), e.Pending())
				}
				if got := e.q.tiers(); got != tier.held {
					t.Fatalf("cancel %d: %s, want the train still queued as %s", i, got, tier.held)
				}
			}
			hs = append(hs, burst(e, &log, tier.at, 6, 2)...) // cancel-then-append
			if e.EventAllocs() != slots {
				t.Fatal("cancelled members' slots were not released at once")
			}
			e.Cancel(hs[3]) // the leader again, now with the appended train behind it
			e.Run()
			if got := fmt.Sprint(log); got != "[4 6 7]" {
				t.Fatalf("fired %s, want [4 6 7]", got)
			}
			e.Cancel(hs[4]) // already fired: recorded, nothing to unlink
			if !hs[4].Cancelled() || e.Pending() != 0 {
				t.Fatalf("cancel after fire: Cancelled=%v Pending=%d", hs[4].Cancelled(), e.Pending())
			}
		})
	}
}

// A remembered tail whose slot has been recycled for an event at another
// instant is not a tail any more: the next event for the old instant must
// not ride in the new occupant's train.
func TestTrainTailSlotReused(t *testing.T) {
	e := NewEngine(1)
	var log []int
	stale := burst(e, &log, 2*Second, 0, 1)[0]
	e.Cancel(stale)
	fresh := burst(e, &log, 3*Second, 1, 1)[0]
	if fresh.ev != stale.ev {
		t.Fatal("slot was not recycled")
	}
	burst(e, &log, 2*Second, 2, 1)
	e.RunUntil(2 * Second)
	if got := fmt.Sprint(log); got != "[2]" || e.Pending() != 1 || e.Stats().Chained != 0 {
		t.Fatalf("by 2 s fired %s with Pending %d, Chained %d; want [2], 1 and 0", got, e.Pending(), e.Stats().Chained)
	}
}

// A callback inside a train may cancel members that have not fired yet,
// including the very next one.
func TestTrainCancelFromInside(t *testing.T) {
	e := NewEngine(1)
	var log []int
	var hs []Handle
	e.At(Second, Func(func() { e.Cancel(hs[0]); e.Cancel(hs[2]); log = append(log, -1) }))
	hs = burst(e, &log, Second, 0, 4)
	e.Run()
	if got := fmt.Sprint(log); got != "[-1 1 3]" {
		t.Fatalf("fired %s, want [-1 1 3]", got)
	}
}

// Stop inside a train leaves the unfired rest queued, ahead of anything
// scheduled for the same instant afterwards; the next Run resumes there.
func TestTrainStop(t *testing.T) {
	e := NewEngine(1)
	var log []int
	hs := burst(e, &log, Second, 0, 2)
	e.At(Second, Func(func() { log = append(log, 2); e.Stop() }))
	hs = append(hs, Handle{})
	hs = append(hs, burst(e, &log, Second, 3, 3)...)
	e.Run()
	if got := fmt.Sprint(log); got != "[0 1 2]" || e.Pending() != 3 || e.Now() != Second {
		t.Fatalf("stopped after %s with Pending %d at %v", got, e.Pending(), e.Now())
	}
	for _, h := range hs[3:] {
		if !h.Active() || h.When() != Second {
			t.Fatalf("unfired member reads Active=%v When=%v", h.Active(), h.When())
		}
	}
	e.Cancel(hs[3]) // the head of the unfired rest
	burst(e, &log, Second, 6, 2)
	e.RunUntil(Second)
	if got := fmt.Sprint(log); got != "[0 1 2 4 5 6 7]" || e.Pending() != 0 {
		t.Fatalf("resumed to %s with Pending %d", got, e.Pending())
	}
}

// Zero-delay work scheduled from inside a train queues behind the train's
// tail while that is still waiting to fire; once the tail has fired it is no
// longer a place to link to, and a later schedule for the same instant must
// start a train of its own.
func TestTrainZeroDelayFromMember(t *testing.T) {
	e := NewEngine(1)
	var log []int
	child := func(id int) func() {
		return func() {
			log = append(log, id)
			e.Schedule(0, func() { log = append(log, 10+id) })
		}
	}
	for i := 0; i < 3; i++ {
		e.At(Second, Func(child(i)))
	}
	e.Run()
	if got := fmt.Sprint(log); got != "[0 1 2 10 11 12]" || e.Pending() != 0 || e.Fired() != 6 {
		t.Fatalf("fired %s, Pending %d, Fired %d", got, e.Pending(), e.Fired())
	}
	if e.Stats().Chained != 5 {
		t.Fatalf("Chained %d: all three children should have joined the train they were scheduled from", e.Stats().Chained)
	}
	burst(e, &log, e.Now(), 20, 2)
	e.Run()
	if got := fmt.Sprint(log[6:]); got != "[20 21]" || e.Pending() != 0 {
		t.Fatalf("after the instant's trains fired, two more events for it fired as %s, Pending %d", got, e.Pending())
	}
}

// A train parked beyond the ring horizon moves far -> ring -> near as one
// entry, members attached, and still takes appends and cancels on the way.
func TestTrainMigratesAcrossTiers(t *testing.T) {
	e := NewEngine(1)
	var log []int
	nop := func() {}
	at := bucketTime(ringSize+40) + 9
	e.At(bucketTime(50), Func(nop))
	e.At(bucketTime(60), Func(nop))
	e.At(bucketTime(ringSize+40), Func(nop)) // shares the train's bucket
	hs := burst(e, &log, at, 0, 4)
	if got := e.q.tiers(); got != "near 0 ring 2 far 2" {
		t.Fatalf("tiers: %s", got)
	}
	e.RunUntil(bucketTime(50)) // peeks at bucket 60; the horizon now covers the train
	if got := e.q.tiers(); got != "near 1 ring 2 far 0" || e.Pending() != 6 {
		t.Fatalf("after the horizon moved: %s, Pending %d", got, e.Pending())
	}
	e.Cancel(hs[1])
	burst(e, &log, at, 4, 1)
	e.RunUntil(at - 1) // the train's bucket becomes current
	if got := e.q.tiers(); got != "near 1 ring 0 far 0" || e.Pending() != 4 {
		t.Fatalf("in the current bucket: %s, Pending %d", got, e.Pending())
	}
	e.Cancel(hs[0])
	burst(e, &log, at, 5, 1)
	if e.Stats().Chained != 5 {
		t.Fatalf("Chained %d: both appends should have found the migrated train's tail", e.Stats().Chained)
	}
	e.Run()
	if got := fmt.Sprint(log); got != "[2 3 4 5]" {
		t.Fatalf("fired %s, want [2 3 4 5]", got)
	}
}

// A ring bucket's list holds leaders only. Cancelling a leader that has
// members puts its first member in its place — at the head, in the middle or
// at the tail of the list, or alone in it — and advance, when the bucket
// comes up, walks exactly the leaders: q.visited never counts a member.
func TestTrainSharedBucketLeaderCancel(t *testing.T) {
	const width = 3
	for _, tc := range []struct {
		name   string
		trains int
		victim int
	}{{"first", 4, 0}, {"middle", 4, 2}, {"last", 4, 3}, {"alone", 1, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(1)
			var log []int
			var hs []Handle
			for j := 0; j < tc.trains; j++ {
				hs = append(hs, burst(e, &log, bucketTime(7)+Time(j), j*width, width)...)
			}
			slot := &e.q.ring[7&ringMask]
			e.Cancel(hs[tc.victim*width])
			promoted := hs[tc.victim*width+1].ev
			if promoted.index != 0 || promoted.prev.next != promoted || promoted.next.prev != promoted {
				t.Fatalf("promoted member is not linked into the bucket list: index %d", promoted.index)
			}
			if wantHead := hs[0].ev; tc.victim == 0 && *slot != promoted || tc.victim != 0 && *slot != wantHead {
				t.Fatal("bucket head does not point at the bucket's oldest leader")
			}
			n := 0
			for ev := *slot; n == 0 || ev != *slot; ev, n = ev.next, n+1 {
				if ev.index == idxMember {
					t.Fatal("a member sits in the bucket list")
				}
			}
			if n != tc.trains || e.q.ringN != tc.trains || e.Pending() != tc.trains*width-1 {
				t.Fatalf("bucket list holds %d nodes, ringN %d, Pending %d; want %d leaders", n, e.q.ringN, e.Pending(), tc.trains)
			}
			// Promoted twice over, down to a lone tail, which then goes too.
			e.Cancel(hs[tc.victim*width+1])
			e.Cancel(hs[tc.victim*width+2])
			if e.q.ringN != tc.trains-1 || (tc.trains == 1) != (*slot == nil) {
				t.Fatalf("after cancelling the whole train: %s", e.q.tiers())
			}
			e.Run()
			var want []int
			for id := 0; id < tc.trains*width; id++ {
				if id/width != tc.victim {
					want = append(want, id)
				}
			}
			if fmt.Sprint(log) != fmt.Sprint(want) {
				t.Fatalf("fired %v, want %v", log, want)
			}
			if e.q.visited != uint64(tc.trains-1) {
				t.Fatalf("advance walked %d nodes for %d leaders", e.q.visited, tc.trains-1)
			}
		})
	}
}

// advance walks one node per leader queued in the bucket it opens, whatever
// hangs behind each: members are never in a bucket list, whether their train
// was scheduled into the ring, promoted there by a cancel, or dropped in from
// far with its chain attached.
func TestAdvanceVisitsLeadersOnly(t *testing.T) {
	e := NewEngine(1)
	var log []int
	burst(e, &log, bucketTime(7), 0, 40)
	lone := burst(e, &log, bucketTime(7)+1, 40, 1)
	hs := burst(e, &log, bucketTime(7)+2, 41, 9)
	burst(e, &log, bucketTime(9), 50, 30)
	burst(e, &log, bucketTime(60), 80, 1)
	burst(e, &log, bucketTime(ringSize+20), 81, 20) // far
	e.Cancel(lone[0])
	e.Cancel(hs[0])
	for _, step := range []struct {
		until   Time
		visited uint64
		fired   uint64
		tiers   string
	}{
		// Each RunUntil ends by peeking at the next event, which opens its bucket.
		{bucketTime(7) - 1, 2, 0, "near 2 ring 2 far 1"},
		{bucketTime(7) + 2, 3, 48, "near 1 ring 1 far 1"},
		{bucketTime(9), 4, 78, "near 1 ring 1 far 0"}, // the horizon now covers far's train: into the ring, chain attached
		{bucketTime(60), 5, 79, "near 1 ring 0 far 0"},
		{bucketTime(ringSize + 20), 5, 99, "near 0 ring 0 far 0"},
	} {
		e.RunUntil(step.until)
		if e.q.visited != step.visited || e.Fired() != step.fired || e.q.tiers() != step.tiers {
			t.Fatalf("by %v: advance walked %d nodes, %d events fired, %s; want %d, %d, %s",
				step.until, e.q.visited, e.Fired(), e.q.tiers(), step.visited, step.fired, step.tiers)
		}
	}
	if e.Pending() != 0 || len(log) != 99 {
		t.Fatalf("Pending %d, %d fired", e.Pending(), len(log))
	}
}

// The first member's back-link is the leader itself; cancelling it must
// rewire the leader's mem, in whichever tier the leader sits, and leave the
// rest of the train behind the leader.
func TestTrainCancelFirstMember(t *testing.T) {
	for _, tier := range trainTiers {
		t.Run(tier.name, func(t *testing.T) {
			e := NewEngine(1)
			var log []int
			hs := burst(e, &log, tier.at, 0, 4)
			e.Cancel(hs[1])
			if hs[0].ev.mem != hs[2].ev || hs[2].ev.prev != hs[0].ev || hs[1].ev.mem != nil || hs[1].ev.prev != nil {
				t.Fatal("the leader's train link does not skip the cancelled first member")
			}
			if got := e.q.tiers(); got != tier.held || e.Pending() != 3 {
				t.Fatalf("%s, Pending %d", got, e.Pending())
			}
			e.Cancel(hs[2])
			e.Cancel(hs[3]) // first member and tail at once: the leader is alone again
			if hs[0].ev.mem != nil {
				t.Fatal("leader still links to a cancelled member")
			}
			burst(e, &log, tier.at, 4, 1) // the tail was cancelled: a train of its own
			e.Run()
			if got := fmt.Sprint(log); got != "[0 4]" {
				t.Fatalf("fired %s, want [0 4]", got)
			}
		})
	}
}

// A two-event train loses its leader: the tail is promoted into the
// leader's queue entry and is still the remembered tail of its instant, so
// the next event for that instant chains behind a leader, not a member.
func TestTrainAppendBehindPromotedTail(t *testing.T) {
	for _, tier := range trainTiers {
		t.Run(tier.name, func(t *testing.T) {
			e := NewEngine(1)
			var log []int
			hs := burst(e, &log, tier.at, 0, 2)
			e.Cancel(hs[0])
			if tail := hs[1].ev; tail.index == idxMember || tail.mem != nil || e.q.tiers() != tier.held {
				t.Fatalf("tail not promoted: index %d, %s", tail.index, e.q.tiers())
			}
			more := burst(e, &log, tier.at, 2, 2)
			if e.Stats().Chained != 3 || hs[1].ev.mem != more[0].ev || more[0].ev.prev != hs[1].ev || e.q.tiers() != tier.held {
				t.Fatalf("append did not chain behind the promoted tail: Chained %d, %s", e.Stats().Chained, e.q.tiers())
			}
			e.Run()
			if got := fmt.Sprint(log); got != "[1 2 3]" || e.Pending() != 0 {
				t.Fatalf("fired %s, Pending %d", got, e.Pending())
			}
		})
	}
}

// BenchmarkFanoutTrain is the tree fan-out's scheduling pattern in steady
// state: 64 bursts in flight, each k events on one instant, and the last
// event of a burst schedules the next burst k copies wide. One op is one
// fired event. With trains a burst costs one queue entry however wide it
// is, and the cycle still allocates nothing.
func BenchmarkFanoutTrain(b *testing.B) {
	for _, k := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			e := NewEngine(1)
			n := 0
			var member, last func()
			member = func() {}
			last = func() {
				n++
				d := Time(200 + n%64*97) // bursts land in different buckets
				for i := 1; i < k; i++ {
					e.Schedule(d, member)
				}
				e.Schedule(d, last)
			}
			for i := 0; i < 64; i++ {
				last()
			}
			for i := 0; i < 64*k*4; i++ { // slots and heaps reach their steady size
				e.step(noEvent)
			}
			b.ReportAllocs()
			var m0, m1 runtime.MemStats
			b.ResetTimer() // first: it may allocate the benchmark's metric map
			runtime.ReadMemStats(&m0)
			for i := 0; i < b.N; i++ {
				e.step(noEvent)
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			if perOp := (m1.TotalAlloc - m0.TotalAlloc) / uint64(b.N); perOp > 0 {
				b.Fatalf("%d B/op in steady state, want 0", perOp)
			}
			// Over everything scheduled since the engine was made, warm-up
			// included, so that a one-op smoke run checks it too. Bursts are
			// scheduled whole, so the ratio is exact wherever b.N ends.
			st := e.Stats()
			scheduled := st.Fired + uint64(st.Pending)
			entries := float64(scheduled-st.Chained) / float64(scheduled)
			if entries > 1/float64(k)+1e-9 {
				b.Fatalf("%.4f queue entries per event with %d-wide bursts, want %.4f", entries, k, 1/float64(k))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
			b.ReportMetric(entries, "queue-entries/event")
		})
	}
}

// BenchmarkColdTrains is the queue under the memory pressure of a large run,
// which BenchmarkHold and BenchmarkFanoutTrain (a few hundred slots, always
// in cache) cannot show: 2^17 events pending in bursts of k on one instant,
// each re-scheduling itself one simulated second on — a ring bucket — when
// it fires, as every copy of a fanned-out packet schedules its own next hop.
// Slots are handed out in an order unrelated to instants, so the events of
// one burst are scattered over 7 MB and every one the queue touches is a
// cache miss. One op is one fired event. advance must walk one node per
// burst, never a member, and the cycle must not allocate.
func BenchmarkColdTrains(b *testing.B) {
	const pending, delay = 1 << 17, Second
	for _, k := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			e := NewEngine(1)
			var again func()
			again = func() { e.Schedule(delay, again) }
			for _, i := range rand.New(rand.NewSource(1)).Perm(pending) {
				e.At(Time(i/k)*delay/Time(pending/k), Func(again))
			}
			// Two full cycles. In the first each burst fires back to back and
			// so re-queues itself as one train, and heaps and free list reach
			// their steady size; from the second on advance opens trains, and
			// what it walks is counted (so a one-op smoke run checks it too)
			// against the trains there are to open: those queued when the
			// second cycle starts and those queued after.
			leaders := func() uint64 { st := e.Stats(); return st.Fired + uint64(st.Pending) - st.Chained }
			var budget0, visited0, fired0 uint64
			for i := 0; i < 2*pending; i++ {
				if i == pending {
					budget0, visited0, fired0 = leaders()-uint64(e.q.entries()), e.q.visited, e.Fired()
				}
				e.step(noEvent)
			}
			b.ReportAllocs()
			var m0, m1 runtime.MemStats
			b.ResetTimer() // first: it may allocate the benchmark's metric map
			runtime.ReadMemStats(&m0)
			for i := 0; i < b.N; i++ {
				e.step(noEvent)
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			if perOp := (m1.TotalAlloc - m0.TotalAlloc) / uint64(b.N); perOp > 0 {
				b.Fatalf("%d B/op in steady state, want 0", perOp)
			}
			visited := e.q.visited - visited0
			if trains := leaders() - budget0; visited > trains {
				b.Fatalf("advance walked %d bucket nodes with only %d trains to open: it visited members", visited, trains)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
			b.ReportMetric(float64(visited)/float64(e.Fired()-fired0), "visited/advance-event")
		})
	}
}

// Posts (Engine.Post) ride FIFO lanes: the random scripts check the
// contract differentially; this pins the first-fit rule on a script short
// enough to read. A post takes the first lane whose newest entry is not
// after it, opens a lane when none is, and takes an event slot once every
// lane is open and none fits; the lanes' newest instants stay
// non-increasing, and everything fires in (time, sequence) order, lane
// entries merged with calendar events by key.
func TestPostLaneFirstFit(t *testing.T) {
	e := NewEngine(1)
	var log []string
	post := func(at Time, name string) { e.Post(at, Func(func() { log = append(log, name) })) }
	post(100, "a")
	post(200, "b")
	post(150, "c")
	e.At(150, Func(func() { log = append(log, "at150") })) // between c and d: no lane
	post(150, "d")
	post(300, "e")
	post(120, "f")
	post(110, "g")
	post(400, "h")
	if got := e.q.newest[:e.q.nl]; fmt.Sprint(got) != fmt.Sprint([]Time{400, 150, 120, 110}) {
		t.Fatalf("lanes' newest instants %v, want 400, 150, 120 and 110 µs", got)
	}
	// Every lane taken: each post before all the lanes' newest opens the
	// next lane until there are laneCap, and the one after that falls back.
	for i := e.q.nl; i <= laneCap; i++ {
		post(Time(100-i), fmt.Sprint("x", i))
	}
	for i := 1; i < e.q.nl; i++ {
		if e.q.newest[i] > e.q.newest[i-1] {
			t.Fatalf("lane %d's newest %v is after lane %d's %v", i, e.q.newest[i], i-1, e.q.newest[i-1])
		}
	}
	laned, fellBack := e.Posts()
	if e.q.nl != laneCap || laned != 8+laneCap-4 || fellBack != 1 || e.EventAllocs() != 2 || e.Pending() != 10+laneCap-4 {
		t.Fatalf("%d lanes, %d posts laned, %d fell back, %d event slots, Pending %d; want %d, %d, 1, 2, %d",
			e.q.nl, laned, fellBack, e.EventAllocs(), e.Pending(), laneCap, 8+laneCap-4, 10+laneCap-4)
	}
	e.Run()
	var want []string
	for i := laneCap; i >= 4; i-- {
		want = append(want, fmt.Sprint("x", i))
	}
	want = append(want, "a", "g", "f", "c", "at150", "d", "b", "e", "h")
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
	if e.q.lhN != 0 || e.Pending() != 0 {
		t.Fatalf("drained, the lane heap holds %d lanes and Pending is %d", e.q.lhN, e.Pending())
	}
}

// A Stop from a laned post stops after it: the rest of its lane stays
// queued and counted, its key reads as passed and the next one's does not,
// and a later run resumes in order, ahead of what was scheduled for the
// instant since. A RunUntil whose deadline falls between a lane's entries
// fires exactly the ones up to it. A lane's chunks go back to the queue's
// free list as it drains, and an emptied lane keeps one, so a second burst
// of the same size carves nothing.
func TestPostLaneStop(t *testing.T) {
	e := NewEngine(1)
	var log []int
	first := e.Reserve(0)
	for i := 0; i < 6; i++ {
		e.Post(5, Func(func() {
			if log = append(log, i); i == 2 {
				e.Stop()
			}
		}))
	}
	e.Run()
	if fmt.Sprint(log) != "[0 1 2]" || e.Pending() != 3 || e.Fired() != 3 || e.Now() != 5 {
		t.Fatalf("Stop from post 2: fired %v, Pending %d, Fired %d, Now %v", log, e.Pending(), e.Fired(), e.Now())
	}
	if !e.Passed(5, first+2) || e.Passed(5, first+3) {
		t.Fatalf("after post 2 fired: Passed reads %v for it and %v for post 3", e.Passed(5, first+2), e.Passed(5, first+3))
	}
	e.At(5, Func(func() { log = append(log, -1) }))
	e.Post(2, Func(func() { log = append(log, 7) }))
	e.Post(4, Func(func() { log = append(log, 9) }))
	e.RunUntil(8)
	if fmt.Sprint(log) != "[0 1 2 3 4 5 -1 7]" || e.Pending() != 1 || e.Now() != 8 {
		t.Fatalf("RunUntil(8): fired %v, Pending %d, Now %v", log, e.Pending(), e.Now())
	}
	e.Run()

	const burst = 4 * laneChunkLen
	nop := Func(func() {})
	for i := 0; i < burst; i++ {
		e.Post(Time(i), nop)
	}
	made := e.q.chunksMade
	if made < 4 {
		t.Fatalf("%d posts in one lane took %d chunks", burst, made)
	}
	e.Run()
	if l := &e.q.lanes[0]; l.head != l.tail || l.head == nil || l.ti != 0 {
		t.Fatal("a drained lane does not keep exactly one empty chunk")
	}
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < burst; i++ {
			e.Post(Time(i), nop)
		}
		e.Run()
	})
	if allocs != 0 || e.q.chunksMade != made {
		t.Fatalf("a second burst of %d posts allocated %.0f times and carved %d chunks", burst, allocs, e.q.chunksMade-made)
	}
}

// BenchmarkFanoutPost is BenchmarkFanoutTrain's pattern with posts, the way
// a router's links post the deliveries of one packet's copies: 64 bursts in
// flight, each k posts on one instant, the last of which posts the next
// burst. One op is one fired action. Posts take lane entries, not event
// slots, and the cycle allocates nothing.
//
// A burst's delay is one of spread values, and the order they come in sets
// how many lanes first fit opens. The k cases cycle through 64 delays,
// which opens 3 lanes and keeps 2.9 keys in the lane heap at a pop, fewer
// than any benchmark workload (8 to 20 lanes open, 3.7 to 12.4 keys). The
// churn case draws its 40 delays in hashed order instead, which opens 17
// lanes and keeps about 12.5 keys, the shape of tree1k-churn, the workload
// with the most. lanes-open and heap-keys/pop report the shape each case
// ran.
func BenchmarkFanoutPost(b *testing.B) {
	for _, c := range []struct {
		name      string
		k, spread int
		shuffle   bool
	}{
		{"k1", 1, 64, false}, {"k8", 8, 64, false}, {"k64", 64, 64, false},
		{"churn-k8", 8, churnSpread, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			k := c.k
			e := NewEngine(1)
			n := 0
			var member, last Func
			member = func() {}
			last = func() {
				n++
				pick := n
				if c.shuffle {
					pick = int(uint32(n) * 2654435769 >> 16) // Fibonacci hashing: no short cycle
				}
				d := Time(200 + pick%c.spread*97) // bursts land in different buckets
				for i := 1; i < k; i++ {
					e.Post(d, member)
				}
				e.Post(d, last)
			}
			for i := 0; i < 64; i++ {
				last()
			}
			// Chunks and the lane heap reach their steady size; the hashed
			// delays take longer to than a cycle.
			for e.Fired() < uint64(64*k*64) {
				e.step(noEvent)
			}
			b.ReportAllocs()
			// The queue's own allocation sites are counted exactly over the
			// timed loop: lane chunks carved, event slots handed out fresh
			// and the near and far heaps' capacity. The process-wide malloc
			// count would also see the testing harness's own.
			sites := func() [4]int {
				return [4]int{e.q.chunksMade, int(e.q.slotAllocs), cap(e.q.near), cap(e.q.far)}
			}
			s0 := sites()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.step(noEvent)
			}
			b.StopTimer()
			if s1 := sites(); s1 != s0 {
				b.Fatalf("the queue grew in steady state: chunks, event slots, near and far heap capacity %v -> %v", s0, s1)
			}
			// Anything else that allocated per action would show here, as
			// at least one allocation per run of 64·k actions.
			if allocs := testing.AllocsPerRun(8, func() {
				for i := 0; i < 64*k; i++ {
					e.step(noEvent)
				}
			}); allocs != 0 {
				b.Fatalf("%.0f allocations per %d actions in steady state, want 0", allocs, 64*k)
			}
			// Over everything posted since the engine was made, warm-up
			// included, so that a one-op smoke run checks it too.
			st := e.Stats()
			posted := st.Fired + uint64(st.Pending)
			slots := float64(st.EventAllocs+st.EventReuses) / float64(posted)
			if laned, _ := e.Posts(); laned != posted || slots != 0 {
				b.Fatalf("%d of %d posts laned, %.4f event slots per action; want all and 0", laned, posted, slots)
			}
			// The heap's size at a pop, sampled untimed over as many
			// actions as the warm-up fired.
			keys := 0
			for i := 0; i < 64*k*4; i++ {
				keys += e.q.lhN
				e.step(noEvent)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/action")
			b.ReportMetric(slots, "queue-slots/action")
			b.ReportMetric(float64(e.q.nl), "lanes-open")
			b.ReportMetric(float64(keys)/float64(64*k*4), "heap-keys/pop")
		})
	}
}

// churnSpread is how many delays BenchmarkFanoutPost's churn case draws
// from.
const churnSpread = 40
