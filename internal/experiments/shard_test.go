package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"toposense/internal/obs"
	"toposense/internal/sim"
	"toposense/internal/topology"
)

// shardFamilySpecs maps every registered generator family to a small spec
// exercised by the cross-shard determinism property tests. Families with
// generator-emitted domain labels (star, tree, linear, tiered) partition
// along those; the rest (a, b, mesh) go through the min-cut fallback.
// TestShardDeterminismCoversRegistry fails when a new family is registered
// without an entry here.
var shardFamilySpecs = map[string]string{
	"a":        "a,rxset=2",
	"b":        "b,sessions=3",
	"tiered":   "tiered,fanout=2:2,rxleaf=2",
	"star":     "star,arms=3,rxarm=2",
	"mesh":     "mesh,routers=6,rxrouter=2",
	"tree":     "tree,depth=2,branch=3,rxleaf=2",
	"linear":   "linear,chains=3,length=3,rxhop=2",
	"ladder":   "ladder",
	"lastmile": "lastmile,tier=2",
	"domains":  "domains",
}

func TestShardDeterminismCoversRegistry(t *testing.T) {
	for _, name := range topology.Names() {
		if _, ok := shardFamilySpecs[name]; !ok {
			t.Errorf("generator family %q has no shard-determinism spec; add one to shardFamilySpecs", name)
		}
	}
}

// runShardWorld executes one world on the given engine flavour (shards 0 =
// the plain single-threaded engine) with observability on and the flight
// recorder off (its retained tail is scheduling-dependent across engines).
func runShardWorld(t *testing.T, specStr string, seed int64, shards int, dur sim.Time) (*World, *obs.Obs) {
	t.Helper()
	w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: seed, Traffic: VBR3}, Topo: specStr, Shards: shards, Duration: dur.Seconds()})
	o := obs.New()
	o.Rec = nil
	w.WireObs(o)
	w.Run(dur)
	return w, o
}

// modelCanonical reduces a run to its model-visible outcomes: each
// receiver's full subscription trace, the events-fired / packets-forwarded
// / controller-pass meters, every counter, and each histogram's total
// observation count. It excludes data that records the interleaving of
// same-timestamp events rather than model state — histogram bucket
// distributions and sums, audit transients, engine stats — which the
// sharded engines' partition-boundary tie-break may order differently
// than the serial engine's FIFO.
func modelCanonical(t *testing.T, w *World, o *obs.Obs) string {
	t.Helper()
	var sb strings.Builder
	traces, optima := w.AllTraces()
	for i, tr := range traces {
		fmt.Fprintf(&sb, "rx %d opt %d:", i, optima[i])
		for _, p := range tr.Points() {
			fmt.Fprintf(&sb, " %d@%d", p.Level, int64(p.At))
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "fired %d\n", w.Engine.Fired())
	var packets int64
	for _, l := range w.Net.Links() {
		packets += l.Stats().Delivered
	}
	fmt.Fprintf(&sb, "packets %d\n", packets)
	fmt.Fprintf(&sb, "passes %d\n", w.Controller.StepsRun)
	d := o.Dump()
	for _, c := range d.Counters {
		fmt.Fprintf(&sb, "counter %s %d\n", c.Name, c.Value)
	}
	for _, h := range d.Histograms {
		fmt.Fprintf(&sb, "histogram %s count %d\n", h.Name, h.Count)
	}
	return sb.String()
}

// exportCanonical is the full observability export: everything in
// modelCanonical plus histogram bucket distributions and the audit log.
// Histogram float sums and means are zeroed (their accumulation order is
// partition-dependent) and the per-engine stats section is dropped (it
// reports the execution, not the model). Byte-identical across worker
// counts of the same logical partitioning.
func exportCanonical(t *testing.T, w *World, o *obs.Obs) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(modelCanonical(t, w, o))
	d := o.Dump()
	d.Engines = nil
	for i := range d.Histograms {
		d.Histograms[i].Sum = 0
		d.Histograms[i].Mean = 0
	}
	dump, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	sb.Write(dump)
	return sb.String()
}

// TestShardWorkerInvariance is the determinism property test of the
// sharded engine proper: for every registered generator family, runs with
// 1, 2 and 4 workers at the same seed must produce byte-identical full
// observability exports. The worker count is physical only — the logical
// partitioning comes from the topology — so nothing, including
// tie-ordering artifacts, may depend on it.
func TestShardWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every family three times")
	}
	const dur = 20 * sim.Second
	for _, name := range topology.Names() {
		spec, ok := shardFamilySpecs[name]
		if !ok {
			continue // TestShardDeterminismCoversRegistry reports it
		}
		t.Run(name, func(t *testing.T) {
			w, o := runShardWorld(t, spec, 1, 1, dur)
			base := exportCanonical(t, w, o)
			for _, workers := range []int{2, 4} {
				w, o := runShardWorld(t, spec, 1, workers, dur)
				if got := exportCanonical(t, w, o); got != base {
					t.Errorf("%s: %d workers diverge from 1 worker\n%s",
						spec, workers, firstDiff(base, got))
				}
			}
		})
	}
}

// TestShardSerialEquivalence pins the sharded engine against the
// single-threaded determinism oracle: for every family, the partitioned
// run's model-visible outcomes — receiver traces, totals, every counter —
// must be byte-identical to the plain engine's at this horizon. The two
// engines serialize same-timestamp partition-boundary ties differently, so
// an engine bug (a lost event, a wrong clock, a racing RNG draw) shows up
// here immediately, while over much longer runs a reordered tie on a
// saturated queue can legitimately cascade (the sharded golden lineage in
// golden_test.go covers that regime).
func TestShardSerialEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every family twice")
	}
	const dur = 20 * sim.Second
	for _, name := range topology.Names() {
		spec, ok := shardFamilySpecs[name]
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			w, o := runShardWorld(t, spec, 1, 0, dur)
			serial := modelCanonical(t, w, o)
			w, o = runShardWorld(t, spec, 1, 4, dur)
			if got := modelCanonical(t, w, o); got != serial {
				t.Errorf("%s: sharded run diverges from the serial oracle\n%s",
					spec, firstDiff(serial, got))
			}
		})
	}
}

// TestShardDeterminismScaleRows pins the fig_scale acceptance: rows from
// the sharded engine must be byte-identical to the single-threaded
// ladder's (wall-clock pass latencies and the shard tag excluded), on
// both a domain-labelled family and the tiered-Internet topology.
func TestShardDeterminismScaleRows(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each point three times")
	}
	for _, point := range []string{
		"tree,depth=2,branch=3,rxleaf=2",
		"tiered,fanout=2:2,rxleaf=2",
	} {
		t.Run(point, func(t *testing.T) {
			base := scaleRowCanonical(t, point, 0)
			for _, shards := range []int{2, 4} {
				if got := scaleRowCanonical(t, point, shards); got != base {
					t.Errorf("%s: shards=%d row diverges\n%s", point, shards, firstDiff(base, got))
				}
			}
		})
	}
}

func scaleRowCanonical(t *testing.T, point string, shards int) string {
	t.Helper()
	res := scaleSpec(Scenario{WorldConfig: WorldConfig{Seed: 1, Traffic: CBR}, Topo: point, Shards: shards, Duration: 15}).Execute(0)
	if res.Failed() {
		t.Fatalf("run %s failed: %s", res.Name, res.Err)
	}
	rows, ok := res.Rows.([]ScaleRow)
	if !ok || len(rows) != 1 {
		t.Fatalf("run %s: rows are %T, want one ScaleRow", res.Name, res.Rows)
	}
	row := rows[0]
	row.Shards, row.PassMeanMs, row.PassMaxMs = 0, 0, 0
	enc, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s events=%d packets=%d", enc, res.Events, res.Packets)
}

// firstDiff renders the first differing line of two canonical strings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
