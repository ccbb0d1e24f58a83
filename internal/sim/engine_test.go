package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1_000_000 {
		t.Fatalf("Second = %d, want 1e6 microseconds", Second)
	}
	if Millisecond*1000 != Second {
		t.Fatalf("1000 ms != 1 s")
	}
	if Minute != 60*Second {
		t.Fatalf("Minute = %d", Minute)
	}
}

func TestTimeSeconds(t *testing.T) {
	cases := []struct {
		in   Time
		want float64
	}{
		{0, 0},
		{Second, 1},
		{1500 * Millisecond, 1.5},
		{-Second, -1},
	}
	for _, c := range cases {
		if got := c.in.Seconds(); got != c.want {
			t.Errorf("(%d).Seconds() = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 0.5, 1.25, 600, 1200, 0.000001} {
		got := FromSeconds(s)
		if got.Seconds() != s {
			t.Errorf("FromSeconds(%g) = %v (%g s)", s, got, got.Seconds())
		}
	}
	if FromSeconds(-2.5) != -2500*Millisecond {
		t.Errorf("FromSeconds(-2.5) = %v", FromSeconds(-2.5))
	}
}

func TestTimeString(t *testing.T) {
	if got := (1500 * Millisecond).String(); got != "1.500000s" {
		t.Errorf("String = %q", got)
	}
}

func TestTimeDuration(t *testing.T) {
	if got := (2 * Second).Duration(); got != 2*time.Second {
		t.Errorf("Duration = %v", got)
	}
}

func TestTransmitTime(t *testing.T) {
	// 1000 bytes at 32 Kbps = 8000 bits / 32000 bps = 250 ms.
	if got := TransmitTime(1000, 32_000); got != 250*Millisecond {
		t.Errorf("TransmitTime(1000, 32k) = %v, want 250ms", got)
	}
	// 1000 bytes at 8 Mbps = 1 ms.
	if got := TransmitTime(1000, 8_000_000); got != Millisecond {
		t.Errorf("TransmitTime(1000, 8M) = %v, want 1ms", got)
	}
	// Sub-microsecond serialization rounds up to 1 µs.
	if got := TransmitTime(1, 1e12); got != 1 {
		t.Errorf("TransmitTime tiny = %v, want 1", got)
	}
}

func TestTransmitTimeRoundsUp(t *testing.T) {
	// 1000 bytes at 3 Mbps = 2666.66 µs -> 2667.
	if got := TransmitTime(1000, 3_000_000); got != 2667 {
		t.Errorf("TransmitTime = %v, want 2667", got)
	}
}

func TestTransmitTimePanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TransmitTime(1000, 0)
}

func TestMustMonotonic(t *testing.T) {
	// In-order and equal timestamps pass silently.
	MustMonotonic("pkg", "series", 2*Second, Second)
	MustMonotonic("pkg", "", Second, Second)

	expectPanic := func(name, want string) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected panic")
			}
			if got := r.(string); got != want {
				t.Fatalf("panic message %q, want %q", got, want)
			}
		}()
		MustMonotonic("pkg", name, Second, 2*Second)
	}
	expectPanic("rx1", `pkg: out-of-order sample at 1.000000s (last 2.000000s) in "rx1"`)
	expectPanic("", `pkg: out-of-order sample at 1.000000s (last 2.000000s)`)
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*Second, func() { got = append(got, 3) })
	e.Schedule(1*Second, func() { got = append(got, 1) })
	e.Schedule(2*Second, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*Second {
		t.Errorf("Now = %v, want 3s", e.Now())
	}
}

func TestFIFOAtSameTimestamp(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-timestamp events reordered: %v", got)
		}
	}
}

func TestScheduleFromCallback(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.Schedule(Second, func() {
		times = append(times, e.Now())
		e.Schedule(Second, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != Second || times[1] != 2*Second {
		t.Fatalf("times = %v", times)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(Second, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	// Double cancel and cancelling a zero handle must be safe.
	e.Cancel(ev)
	e.Cancel(Handle{})
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(Second, func() {})
	e.Run()
	e.Cancel(ev) // must not panic
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine(1)
	var got []int
	var evs []Handle
	for i := 0; i < 5; i++ {
		i := i
		evs = append(evs, e.Schedule(Time(i+1)*Second, func() { got = append(got, i) }))
	}
	e.Cancel(evs[2])
	e.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for i := 1; i <= 5; i++ {
		d := Time(i) * Second
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	e.RunUntil(3 * Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if e.Now() != 3*Second {
		t.Fatalf("Now = %v, want 3s", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.RunUntil(10 * Second)
	if len(fired) != 5 || e.Now() != 10*Second {
		t.Fatalf("after second RunUntil: fired=%d now=%v", len(fired), e.Now())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(5 * Second)
	if e.Now() != 5*Second {
		t.Fatalf("Now = %v, want 5s", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Schedule(Second, func() { count++; e.Stop() })
	e.Schedule(2*Second, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (Stop should halt the loop)", count)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d", e.Pending())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine(1).Schedule(-1, func() {})
}

func TestAtInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(2*Second, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.At(Second, Func(func() {}))
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine(1).Schedule(Second, nil)
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	tk := Every(e, Second, func() { ticks = append(ticks, e.Now()) })
	e.RunUntil(5 * Second)
	tk.Stop()
	e.RunUntil(10 * Second)
	if len(ticks) != 5 {
		t.Fatalf("ticks = %v, want 5 firings", ticks)
	}
	for i, tt := range ticks {
		if tt != Time(i+1)*Second {
			t.Fatalf("tick %d at %v", i, tt)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var tk *Ticker
	tk = Every(e, Second, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	tk.Stop() // idempotent
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Every(NewEngine(1), 0, func() {})
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int {
		e := NewEngine(42)
		var got []int
		for i := 0; i < 100; i++ {
			d := Time(e.Rand().Intn(1000)) * Millisecond
			v := i
			e.Schedule(d, func() { got = append(got, v) })
		}
		e.Run()
		return got
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i)*Millisecond, func() {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", e.Fired())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the engine clock ends at the max delay.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		var fired []Time
		var max Time
		for _, d := range delays {
			dt := Time(d) * Millisecond
			if dt > max {
				max = dt
			}
			e.Schedule(dt, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return len(delays) == 0 || e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset of events fires exactly the
// complement.
func TestQuickCancelSubset(t *testing.T) {
	f := func(delays []uint8, mask []bool) bool {
		e := NewEngine(9)
		firedCount := 0
		var evs []Handle
		for _, d := range delays {
			evs = append(evs, e.Schedule(Time(d)*Millisecond, func() { firedCount++ }))
		}
		cancelled := 0
		for i, ev := range evs {
			if i < len(mask) && mask[i] {
				e.Cancel(ev)
				cancelled++
			}
		}
		e.Run()
		return firedCount == len(delays)-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestStaleHandleCancelIsNoOp(t *testing.T) {
	e := NewEngine(1)
	// Fire an event so its slot lands on the free list.
	h1 := e.Schedule(Millisecond, func() {})
	e.Run()
	// The next schedule recycles the slot for a different event.
	fired := false
	h2 := e.Schedule(Millisecond, func() { fired = true })
	// Cancelling through the stale handle must not touch the new event.
	e.Cancel(h1)
	e.Run()
	if !fired {
		t.Fatal("stale-handle Cancel killed an unrelated recycled event")
	}
	if h2.Cancelled() {
		t.Fatal("recycled event reads Cancelled")
	}
}

func TestStaleHandleGoesInert(t *testing.T) {
	e := NewEngine(1)
	h := e.Schedule(2*Millisecond, func() {})
	e.Cancel(h)
	if !h.Cancelled() {
		t.Fatal("Cancelled = false right after Cancel")
	}
	// Reusing the slot flips the generation; the old handle reads inert.
	h2 := e.Schedule(Millisecond, func() {})
	if h.Cancelled() {
		t.Fatal("stale handle still reads Cancelled after slot reuse")
	}
	if h.Active() || h.When() != 0 {
		t.Fatalf("stale handle not inert: Active=%v When=%v", h.Active(), h.When())
	}
	if !h2.Active() || h2.When() != Millisecond {
		t.Fatalf("live handle wrong: Active=%v When=%v", h2.Active(), h2.When())
	}
	e.Run()
	if h2.Active() {
		t.Fatal("Active = true after firing")
	}
}

func TestEventPoolReuse(t *testing.T) {
	e := NewEngine(1)
	// Steady state: one event in flight at a time -> exactly one allocation.
	n := 0
	var loop func()
	loop = func() {
		n++
		if n < 1000 {
			e.Schedule(Millisecond, loop)
		}
	}
	e.Schedule(Millisecond, loop)
	e.Run()
	if n != 1000 {
		t.Fatalf("fired %d, want 1000", n)
	}
	if got := e.EventAllocs(); got != 1 {
		t.Fatalf("EventAllocs = %d, want 1 (free list not reusing slots)", got)
	}
	if got := e.EventReuses(); got != 999 {
		t.Fatalf("EventReuses = %d, want 999", got)
	}
}

func TestCancelledEventSlotIsRecycled(t *testing.T) {
	e := NewEngine(1)
	h := e.Schedule(Second, func() {})
	e.Cancel(h)
	e.Schedule(Millisecond, func() {})
	if got := e.EventAllocs(); got != 1 {
		t.Fatalf("EventAllocs = %d, want 1 (cancel must release the slot)", got)
	}
	e.Run()
}

// Property: interleaved schedule/cancel/fire cycles with slot reuse keep
// the heap consistent — every non-cancelled event fires exactly once, in
// nondecreasing time order.
func TestQuickPooledCancelFire(t *testing.T) {
	f := func(ops []uint8) bool {
		e := NewEngine(11)
		var handles []Handle
		fired := 0
		expected := 0
		for _, op := range ops {
			switch op % 3 {
			case 0: // schedule
				expected++
				handles = append(handles, e.Schedule(Time(op)*Millisecond, func() { fired++ }))
			case 1: // cancel a prior handle (may be stale — must be safe)
				if len(handles) > 0 {
					h := handles[int(op)%len(handles)]
					if h.Active() {
						expected--
					}
					e.Cancel(h)
				}
			case 2: // drain
				e.Run()
			}
		}
		e.Run()
		return fired == expected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97)*Millisecond, func() {})
		}
		e.Run()
	}
}

// BenchmarkScheduleFire measures the steady-state schedule+fire cycle — the
// simulator's innermost loop. With the event free list this runs
// allocation-free (pre-pool: 1 alloc, 48 B per event).
func BenchmarkScheduleFire(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Millisecond, fn)
		e.Run()
	}
}

// BenchmarkScheduleFireDepth16 keeps 16 events queued so the sift loops do
// real work, closer to a loaded simulation than the depth-1 case.
func BenchmarkScheduleFireDepth16(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	fn := func() {}
	for j := 0; j < 16; j++ {
		e.Schedule(Time(j+1)*Millisecond, fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(17*Millisecond, fn)
		e.step(noEvent)
	}
}

// BenchmarkScheduleCancel measures the schedule+cancel cycle (timer reset,
// the prune-timer pattern in mcast).
func BenchmarkScheduleCancel(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(e.Schedule(Second, fn))
	}
}
