package churn

import (
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/obs"
	"toposense/internal/sim"
)

type event struct {
	at   sim.Time
	slot int
	join bool
}

// rig builds a two-node network on eng (partitioned across two shards when
// eng is a sharded engine) and registers n slots whose callbacks only log.
func rig(eng sim.Runner, slots int, log *[]event) *Driver {
	net := netsim.New(eng)
	a := net.AddNode("a")
	b := net.AddNode("b")
	net.Connect(a, b, netsim.LinkConfig{Bandwidth: 100e6, Delay: 10 * sim.Millisecond, QueueLimit: 100})
	if se, ok := eng.(*sim.ShardedEngine); ok {
		net.Partition(se, []int{0, 1})
	}
	d := New(net)
	g := sim.GlobalOf(eng)
	for i := 0; i < slots; i++ {
		i := i
		d.Slot(0, 10*sim.Second, 5*sim.Second,
			func() { *log = append(*log, event{g.Now(), i, true}) },
			func() { *log = append(*log, event{g.Now(), i, false}) })
	}
	return d
}

func TestRenewalDeterminism(t *testing.T) {
	run := func(eng sim.Runner) ([]event, *Driver) {
		var log []event
		d := rig(eng, 4, &log)
		eng.RunUntil(300 * sim.Second)
		return log, d
	}
	serial, d1 := run(sim.NewEngine(7))
	again, _ := run(sim.NewEngine(7))
	sharded, d2 := run(sim.NewShardedEngine(7, 2))

	if len(serial) == 0 {
		t.Fatal("no churn events fired in 300s")
	}
	if d1.Joins == 0 || d1.Leaves == 0 {
		t.Fatalf("want both transitions, got joins=%d leaves=%d", d1.Joins, d1.Leaves)
	}
	check := func(name string, got []event) {
		t.Helper()
		if len(got) != len(serial) {
			t.Fatalf("%s: %d events, serial %d", name, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("%s: event %d = %+v, serial %+v", name, i, got[i], serial[i])
			}
		}
	}
	check("rerun", again)
	check("sharded", sharded)
	if d2.Joins != d1.Joins || d2.Leaves != d1.Leaves {
		t.Fatalf("sharded counters (%d, %d) != serial (%d, %d)",
			d2.Joins, d2.Leaves, d1.Joins, d1.Leaves)
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	run := func(seed int64) []event {
		var log []event
		eng := sim.NewEngine(seed)
		rig(eng, 4, &log)
		eng.RunUntil(300 * sim.Second)
		return log
	}
	a, b := run(1), run(2)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical churn schedules")
		}
	}
}

func TestStopCancelsPending(t *testing.T) {
	eng := sim.NewEngine(11)
	var log []event
	d := rig(eng, 4, &log)
	eng.At(60*sim.Second, d.Stop)
	eng.RunUntil(300 * sim.Second)
	for _, ev := range log {
		if ev.at > 60*sim.Second {
			t.Fatalf("event at %v fired after Stop at 60s", ev.at)
		}
	}
	if int(d.Joins+d.Leaves) != len(log) {
		t.Fatalf("counters (%d) disagree with log (%d)", d.Joins+d.Leaves, len(log))
	}
	d.Stop() // idempotent
}

func TestInertWithoutSlots(t *testing.T) {
	eng := sim.NewEngine(3)
	net := netsim.New(eng)
	d := New(net)
	if eng.Pending() != 0 {
		t.Fatalf("driver with no slots queued %d events", eng.Pending())
	}
	// The RNG is untouched: the next draw matches a fresh engine's first.
	if got, want := eng.Rand().Int63(), sim.NewEngine(3).Rand().Int63(); got != want {
		t.Fatalf("inert driver disturbed the RNG: %d != %d", got, want)
	}
	d.Stop()
}

func TestObsCounters(t *testing.T) {
	eng := sim.NewEngine(5)
	var log []event
	d := rig(eng, 2, &log)
	o := obs.New(obs.Options{FlightRecorder: -1, AuditPasses: -1})
	d.SetObs(o)
	eng.RunUntil(200 * sim.Second)
	if d.Joins == 0 {
		t.Fatal("no joins in 200s")
	}
	if got := o.ChurnJoins.Value(); got != d.Joins {
		t.Fatalf("churn_joins counter %d, driver %d", got, d.Joins)
	}
	if got := o.ChurnLeaves.Value(); got != d.Leaves {
		t.Fatalf("churn_leaves counter %d, driver %d", got, d.Leaves)
	}
}

func TestSlotPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(netsim.New(eng))
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("zero meanOn", func() { d.Slot(0, 0, sim.Second, func() {}, func() {}) })
	expectPanic("zero meanOff", func() { d.Slot(0, sim.Second, 0, func() {}, func() {}) })
	expectPanic("nil join", func() { d.Slot(0, sim.Second, sim.Second, nil, func() {}) })
	expectPanic("nil leave", func() { d.Slot(0, sim.Second, sim.Second, func() {}, nil) })
}

// TestOneHandlePerSlot: only each slot's pending transition is kept,
// however many the slot has made, and Stop still cancels them.
func TestOneHandlePerSlot(t *testing.T) {
	eng := sim.NewEngine(13)
	var log []event
	d := rig(eng, 3, &log)
	eng.RunUntil(300 * sim.Second)
	if d.Joins+d.Leaves < 20 {
		t.Fatalf("only %d transitions in 300 s", d.Joins+d.Leaves)
	}
	if len(d.pending) != d.Slots() || d.Slots() != 3 {
		t.Fatalf("%d handles kept for %d slots after %d transitions", len(d.pending), d.Slots(), d.Joins+d.Leaves)
	}
	for i, h := range d.pending {
		if !h.Active() {
			t.Errorf("slot %d's kept handle is not its pending transition", i)
		}
	}
	if eng.Pending() != 3 {
		t.Fatalf("%d events queued, want one per slot", eng.Pending())
	}
	d.Stop()
	if eng.Pending() != 0 {
		t.Errorf("%d events still queued after Stop", eng.Pending())
	}
}
