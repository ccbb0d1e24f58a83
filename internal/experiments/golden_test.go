package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// goldenRun is the deterministic subset of a Result that must be
// bit-for-bit reproducible for a fixed seed: the typed rows plus the
// engine/network meters. Wall-clock fields are deliberately excluded.
type goldenRun struct {
	Name       string  `json:"name"`
	Figure     string  `json:"figure"`
	Seed       int64   `json:"seed"`
	SimSeconds float64 `json:"sim_seconds"`
	Rows       any     `json:"rows"`
	Events     uint64  `json:"events"`
	Packets    int64   `json:"packets_forwarded"`
}

// checkGolden executes the named figure's quick sweep at seed 1 and compares
// the deterministic subset of every result against testdata/<file>. shards
// selects the engine: 0 is the single-threaded oracle the goldens are
// recorded on, which -update rewrites them from; any shard count must
// reproduce the same file, less the rows' echo of the engine ("Sharded"),
// which it reads as the oracle's.
func checkGolden(t *testing.T, figure, file string, shards int) {
	t.Helper()
	ex, ok := Lookup(figure)
	if !ok {
		t.Fatalf("figure %s missing from registry", figure)
	}
	specs := ex.Specs(SweepConfig{Seed: 1, Quick: true, Shards: shards})
	results := ExecuteAll(specs)

	runs := make([]goldenRun, len(results))
	for i, r := range results {
		if r.Failed() {
			t.Fatalf("run %s failed: %s", r.Name, r.Err)
		}
		runs[i] = goldenRun{
			Name:       r.Name,
			Figure:     r.Figure,
			Seed:       r.Seed,
			SimSeconds: r.SimSeconds,
			Rows:       r.Rows,
			Events:     r.Events,
			Packets:    r.Packets,
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(runs); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	if shards > 0 {
		got = bytes.ReplaceAll(got, []byte(`"Sharded": true`), []byte(`"Sharded": false`))
	}

	path := filepath.Join("testdata", file)
	if *updateGolden && shards == 0 {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		line := 1
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				break
			}
			if got[i] == '\n' {
				line++
			}
		}
		t.Fatalf("golden mismatch: determinism contract broken (first differing line %d)\n"+
			"got %d bytes, want %d bytes; diff with:\n"+
			"  go test ./internal/experiments -run TestGolden -update && git diff",
			line, len(got), len(want))
	}
}

// TestGoldenFig6Determinism locks the simulator's observable behaviour on
// Topology A: the quick Figure-6 sweep (what `topobench -fig 6 -quick
// -seed 1 -parallel 1` executes) must produce byte-identical rows,
// events-fired and packets-forwarded counts against the golden file recorded
// before the scheduler/pool overhaul. Any change to event ordering, RNG
// consumption, packet lifecycle or queueing shows up here as a diff.
//
// Regenerate (only when an intentional model change is made) with:
//
//	go test ./internal/experiments -run TestGoldenFig6Determinism -update
func TestGoldenFig6Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("quick fig6 sweep is a few seconds of simulation")
	}
	checkGolden(t, "6", "golden_fig6_quick.json", 0)
}

// TestGoldenFig7Determinism is the Topology B counterpart: the quick
// Figure-7 sweep pins the multi-session shared-bottleneck behaviour —
// multicast replication fan-out, inter-session sharing and the controller's
// per-domain pass — recorded before the dense forwarding-state rewrite.
// Together with Fig. 6 it covers both paper topologies.
func TestGoldenFig7Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("quick fig7 sweep is a few seconds of simulation")
	}
	checkGolden(t, "7", "golden_fig7_quick.json", 0)
}

// TestGoldenChurnDeterminism locks the membership-churn study: the quick
// fig_churn sweep (TopoSense and RLM arms under Poisson join/leave, plus
// the tree-ladder arm) must be bit-reproducible for a fixed seed. The churn
// driver draws every holding time from the run-wide RNG, so any change to
// its draw order — or to the departure lifecycle's packet economy
// (Deregister, purge, prune cascade) — shows up here as a diff.
func TestGoldenChurnDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("quick fig_churn sweep is a few seconds of simulation")
	}
	checkGolden(t, "fig_churn", "golden_churn_quick.json", 0)
}

// TestGoldenChurnShardedDeterminism runs the churn study on the sharded
// engine with four workers against the serial golden. The churn driver runs
// entirely at stop-the-world barriers, so serial-vs-sharded composition of
// churn is pinned here byte for byte.
func TestGoldenChurnShardedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("quick fig_churn sweep is a few seconds of simulation")
	}
	checkGolden(t, "fig_churn", "golden_churn_quick.json", 4)
}

// TestGoldenShardedDeterminism runs both golden figures on the sharded
// engine with four workers against the serial goldens: the worker count is
// physical, the logical partitioning comes from the topology, and the
// sharded execution model reproduces the single-threaded oracle byte for
// byte. Topology A and B have no generator-emitted domain labels, so this
// also exercises the min-cut fallback partitioner end to end.
//
// Same-timestamp events meeting at a partition boundary serialize in
// partition order rather than the serial engine's schedule-call order.
// While links drained their queues with an event of their own, such a tie
// between a drain and an arrival could reorder a saturated queue, and the
// sharded engine kept golden files of its own; a link now books a packet's
// whole hop when it accepts it, and the two orders agree on these sweeps.
func TestGoldenShardedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two quick figure sweeps of simulation")
	}
	checkGolden(t, "6", "golden_fig6_quick.json", 4)
	checkGolden(t, "7", "golden_fig7_quick.json", 4)
}
