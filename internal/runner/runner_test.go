package runner

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"toposense/internal/experiments"
	"toposense/internal/sim"
)

// mixedSpecs is a cross-section of the real sweeps — the quick forms of
// figures 6, 7, 8 and 10 — exercising several world shapes.
func mixedSpecs() []experiments.Spec {
	var specs []experiments.Spec
	for _, name := range []string{"6", "7", "8", "10"} {
		ex, _ := experiments.Lookup(name)
		specs = append(specs, ex.Specs(experiments.SweepConfig{Seed: 1, Quick: true})...)
	}
	return specs
}

// TestParallelMatchesSerial is the determinism guarantee: the same specs
// executed serially and on a parallel pool must produce identical rows,
// identical event/packet counts, and byte-identical rendered tables.
func TestParallelMatchesSerial(t *testing.T) {
	serial := experiments.ExecuteAll(mixedSpecs())
	parallel := Run(mixedSpecs(), Options{Parallelism: 8})

	if len(serial) != len(parallel) {
		t.Fatalf("result count: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Name != p.Name {
			t.Fatalf("result %d out of order: serial %q, parallel %q", i, s.Name, p.Name)
		}
		if s.Err != p.Err {
			t.Errorf("%s: err mismatch: serial %q, parallel %q", s.Name, s.Err, p.Err)
		}
		if !reflect.DeepEqual(s.Rows, p.Rows) {
			t.Errorf("%s: rows differ:\nserial:   %#v\nparallel: %#v", s.Name, s.Rows, p.Rows)
		}
		if s.Events != p.Events || s.Packets != p.Packets {
			t.Errorf("%s: metadata differs: serial %d events/%d packets, parallel %d/%d",
				s.Name, s.Events, s.Packets, p.Events, p.Packets)
		}
	}

	// Byte-identical rendering, the property cmd/topobench relies on.
	render := func(results []experiments.Result) string {
		rows, err := experiments.GatherRows[experiments.StabilityRow](results[:2])
		if err != nil {
			t.Fatal(err)
		}
		return experiments.StabilityTable("t", "x", rows).String()
	}
	if a, b := render(serial), render(parallel); a != b {
		t.Errorf("rendered tables differ:\nserial:\n%s\nparallel:\n%s", a, b)
	}
}

// TestPanicContainment proves one crashing run fails alone: its Result
// carries the panic, and its neighbours still produce rows.
func TestPanicContainment(t *testing.T) {
	good := func(tag string) experiments.Spec {
		return experiments.NewSpec("test", tag, 1, sim.Second,
			func(m *experiments.Meter) (any, error) { return []string{tag}, nil })
	}
	bad := experiments.NewSpec("test", "bad", 1, sim.Second,
		func(m *experiments.Meter) (any, error) { panic("boom") })

	results := Run([]experiments.Spec{good("a"), bad, good("b")}, Options{Parallelism: 2})
	if !results[1].Failed() || !strings.Contains(results[1].Err, "panic") || !strings.Contains(results[1].Err, "boom") {
		t.Errorf("panicking run: want panic error, got %+v", results[1])
	}
	for _, i := range []int{0, 2} {
		if results[i].Failed() {
			t.Errorf("neighbour %d failed: %s", i, results[i].Err)
		}
		if rows, ok := results[i].Rows.([]string); !ok || len(rows) != 1 {
			t.Errorf("neighbour %d lost its rows: %#v", i, results[i].Rows)
		}
	}
}

// TestTimeout proves a run that burns wall-clock time while simulated time
// advances is stopped and reported as failed, not hung.
func TestTimeout(t *testing.T) {
	slow := experiments.NewSpec("test", "slow", 1, 3600*sim.Second,
		func(m *experiments.Meter) (any, error) {
			e := sim.NewEngine(1)
			// Each simulated second costs ~50 ms of wall clock, so the
			// full hour would take minutes; the watchdog must cut in.
			e.Every(100*sim.Millisecond, func() { time.Sleep(5 * time.Millisecond) })
			m.Observe(e, nil)
			e.RunUntil(3600 * sim.Second)
			return []string{"done"}, nil
		})

	start := time.Now()
	results := Run([]experiments.Spec{slow}, Options{Parallelism: 1, Timeout: 60 * time.Millisecond})
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("timeout did not cut the run short (took %v)", took)
	}
	if !results[0].Failed() || !strings.Contains(results[0].Err, "timeout") {
		t.Errorf("want timeout error, got %+v", results[0])
	}
	if !strings.Contains(results[0].Err, "60ms") {
		t.Errorf("timeout error should name the budget: %q", results[0].Err)
	}
}

// TestResultOrdering proves results come back in spec order even when
// completion order is scrambled by sleeps.
func TestResultOrdering(t *testing.T) {
	var specs []experiments.Spec
	for i := 0; i < 8; i++ {
		i := i
		specs = append(specs, experiments.NewSpec("test", fmt.Sprintf("spec%d", i), 1, sim.Second,
			func(m *experiments.Meter) (any, error) {
				// Earlier specs sleep longer, so completion order is
				// roughly reversed.
				time.Sleep(time.Duration(8-i) * 5 * time.Millisecond)
				return []int{i}, nil
			}))
	}
	results := Run(specs, Options{Parallelism: 4})
	for i, r := range results {
		if rows := r.Rows.([]int); rows[0] != i {
			t.Errorf("result %d holds rows of spec %d", i, rows[0])
		}
	}
}

// TestProgress proves the callback sees every completion exactly once with
// a monotonically increasing count.
func TestProgress(t *testing.T) {
	var specs []experiments.Spec
	for i := 0; i < 6; i++ {
		specs = append(specs, experiments.NewSpec("test", fmt.Sprintf("spec%d", i), 1, sim.Second,
			func(m *experiments.Meter) (any, error) { return nil, nil }))
	}
	var calls []int
	Run(specs, Options{Parallelism: 3, OnProgress: func(done, total int, r experiments.Result) {
		if total != len(specs) {
			t.Errorf("total = %d, want %d", total, len(specs))
		}
		calls = append(calls, done) // safe: calls are serialized
	}})
	if len(calls) != len(specs) {
		t.Fatalf("progress called %d times, want %d", len(calls), len(specs))
	}
	for i, done := range calls {
		if done != i+1 {
			t.Errorf("call %d reported done=%d, want %d", i, done, i+1)
		}
	}
}

// TestParallelismDefaults pins the clamping rules.
func TestParallelismDefaults(t *testing.T) {
	// Zero specs must not deadlock or panic, whatever the parallelism.
	if out := Run(nil, Options{Parallelism: 4}); len(out) != 0 {
		t.Errorf("empty input produced %d results", len(out))
	}
	// More workers than specs is fine.
	one := []experiments.Spec{experiments.NewSpec("test", "only", 1, sim.Second,
		func(m *experiments.Meter) (any, error) { return []int{1}, nil })}
	if out := Run(one, Options{Parallelism: 64}); out[0].Failed() {
		t.Errorf("single spec failed: %s", out[0].Err)
	}
	// Workers mirrors Run's resolution: default, clamp-to-specs, minimum 1.
	if got := Workers(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0, 100) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(64, 3); got != 3 {
		t.Errorf("Workers(64, 3) = %d, want 3", got)
	}
	if got := Workers(0, 0); got != 1 {
		t.Errorf("Workers(0, 0) = %d, want 1", got)
	}
}
