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
