package sim

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// Cross-shard events reach their destination queue through the barrier's
// mailbox drain, which schedules them like any other event: same-instant
// arrivals chain behind whatever the shard already holds for that instant.
// A window whose bound is exactly the train's instant leaves the whole
// train queued (windows are exclusive); the inclusive deadline pass then
// fires it, after the globals of that instant.
func TestShardTrainAcrossBarrier(t *testing.T) {
	const at = 5 * Millisecond
	for _, workers := range []int{1, 2} {
		se := NewShardedEngine(1, workers)
		se.SetPartitions(2, Millisecond)
		var log []int
		se.Shard(0).At(0, Func(func() {
			x := se.Cross(0, 1)
			for i := 0; i < 4; i++ {
				x.At(at, Func(func() { log = append(log, i) }))
			}
			x.At(at+1, Func(func() { log = append(log, 4) }))
		}))
		se.Shard(1).At(at, Func(func() { log = append(log, -1) }))
		atBound := -1
		se.Global().At(at, Func(func() { atBound = len(log) }))

		se.RunUntil(at - 1)
		st, q := se.Stats(), &se.shards[1].q
		if st.Shards[1].Pending != 6 || st.Shards[1].CrossIn != 5 || st.Chained != 4 || q.entries() != 2 {
			t.Fatalf("workers %d, after the drain: shard 1 Pending %d CrossIn %d, Chained %d, %s; want 6 events in two entries",
				workers, st.Shards[1].Pending, st.Shards[1].CrossIn, st.Chained, q.tiers())
		}
		se.RunUntil(at)
		if atBound != 0 {
			t.Fatalf("workers %d: %d events of the train fired in the window that ends on its instant", workers, atBound)
		}
		if got := fmt.Sprint(log); got != "[-1 0 1 2 3]" || se.Pending() != 1 {
			t.Fatalf("workers %d: fired %s with Pending %d, want [-1 0 1 2 3] and 1", workers, got, se.Pending())
		}
		se.Run()
		if len(log) != 6 || log[5] != 4 {
			t.Fatalf("workers %d: fired %v in all", workers, log)
		}
	}
}

// TestShardStatsJSONHasNoHostTime: barrier stalls are host wall time, so a
// sharded engine's stats keep them (summed into BarrierStall) but leave
// them out of their JSON, which observability exports embed and two runs
// of one seed must write byte for byte.
func TestShardStatsJSONHasNoHostTime(t *testing.T) {
	se := NewShardedEngine(1, 2)
	se.SetPartitions(2, Millisecond)
	for i := 0; i < 100; i++ {
		se.Shard(i%2).At(Time(i)*Millisecond, Func(func() {}))
	}
	se.Run()
	st := se.Stats()
	var sum int64
	for _, s := range st.Shards {
		sum += s.StallNanos
	}
	if st.BarrierStall != sum {
		t.Errorf("BarrierStall %d, shards' stalls sum to %d", st.BarrierStall, sum)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "stall") || !strings.Contains(string(data), `"windows"`) {
		t.Errorf("engine stats JSON: %s", data)
	}
}

// TestGlobalRefusedInsideWindow: global events run with every shard
// parked, so the global queue refuses a schedule from inside a shard
// window through each of its entry points, After, At and AtReserved, at
// one worker as at two.
func TestGlobalRefusedInsideWindow(t *testing.T) {
	const want = "sim: global schedule from inside a shard window; use the shard or cross-shard scheduler"
	for _, workers := range []int{1, 2} {
		se := NewShardedEngine(1, workers)
		se.SetPartitions(2, Millisecond)
		g := se.Global().(Reserver)
		seq := g.Reserve(1)
		nop := Func(func() {})
		calls := []struct {
			name string
			call func()
		}{
			{"After", func() { g.After(Second, nop) }},
			{"At", func() { g.At(Second, nop) }},
			{"AtReserved", func() { g.AtReserved(Second, seq, nop) }},
		}
		got := make([]any, len(calls))
		se.Shard(0).At(Millisecond, Func(func() {
			for i, c := range calls {
				func() {
					defer func() { got[i] = recover() }()
					c.call()
				}()
			}
		}))
		se.Shard(1).At(Millisecond, nop)
		se.Run()
		for i, c := range calls {
			if got[i] != want {
				t.Errorf("workers %d: Global().%s inside a shard window: panic %v, want %q", workers, c.name, got[i], want)
			}
		}
		if se.Fired() != 2 || se.Pending() != 0 {
			t.Errorf("workers %d: fired %d with %d pending, want the two shard events and nothing queued", workers, se.Fired(), se.Pending())
		}
		g.At(Second, nop) // between windows the global queue takes schedules
	}
}

// TestDegenerateStop: a single-partition ShardedEngine is the plain
// Engine, Stop included (the wall-clock watchdog relies on it), and a
// partitioned one stops the same way when the stopping event is global: an
// event that calls Stop ends RunUntil after it, leaving the other event of
// its instant and a later one queued and the clock at the stopping event's
// time, so an event scheduled in between is not in the past; Run then
// finishes the three left in time order.
func TestDegenerateStop(t *testing.T) {
	partitioned := func(workers int) Runner {
		se := NewShardedEngine(1, workers)
		se.SetPartitions(2, Millisecond)
		return se
	}
	for i, r := range []Runner{NewEngine(1), NewShardedEngine(1, 1), partitioned(1), partitioned(2)} {
		var log []int
		r.At(Second, Func(func() { log = append(log, 0); r.Stop() }))
		r.At(Second, Func(func() { log = append(log, 1) }))
		r.At(2*Second, Func(func() { log = append(log, 2) }))
		r.RunUntil(10 * Second)
		if r.Fired() != 1 || r.Pending() != 2 || len(log) != 1 {
			t.Errorf("runner %d (%T): RunUntil after Stop fired %d (%v) with %d pending, want 1 and 2", i, r, r.Fired(), log, r.Pending())
		}
		if now := r.Now(); now != Second {
			t.Errorf("runner %d (%T): clock at %v after a Stop at %v", i, r, now, Second)
		}
		r.At(Second+500*Millisecond, Func(func() { log = append(log, 3) }))
		r.Run()
		if r.Fired() != 4 || r.Pending() != 0 || fmt.Sprint(log) != "[0 1 3 2]" {
			t.Errorf("runner %d (%T): Run fired %d (%v) with %d pending, want all four in time order", i, r, r.Fired(), log, r.Pending())
		}
	}
}
