package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRegistrySpecList pins what every registry experiment enumerates —
// each spec's figure, name, seed and duration — for the full paper-scale
// sweep, the quick sweep, a quick sweep with every engine and control-plane
// switch set, and a quick sweep with a topology family override. The full
// sweeps take minutes to run; enumerating them takes microseconds, so this
// is how a refactor of the harness proves the paper-scale runs unchanged.
//
// Regenerate (only when a sweep is meant to change) with:
//
//	go test ./internal/experiments -run TestRegistrySpecList -update
func TestRegistrySpecList(t *testing.T) {
	var buf bytes.Buffer
	for _, cfg := range []SweepConfig{
		{Seed: 1},
		{Seed: 1, Quick: true},
		{Seed: 3, Quick: true, Shards: 2, Aggregate: true, Federate: true, Churn: 4},
		{Seed: 1, Quick: true, Topo: "star"},
	} {
		fmt.Fprintf(&buf, "# %+v\n", cfg)
		for _, ex := range Registry() {
			for _, s := range ex.Specs(cfg) {
				fmt.Fprintf(&buf, "%s\t%s\tseed=%d\tdur=%d\n", s.Figure, s.Name, s.Seed, int64(s.Duration))
			}
		}
	}
	got := buf.Bytes()
	path := filepath.Join("testdata", "registry_specs.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("registry spec list changed\n%s", firstDiff(string(want), string(got)))
	}
}

// TestChurnPeriodRounds: fig_churn converts SweepConfig.Churn seconds to
// the nearest microsecond, as toposim -churn does, so 1.001 s is a
// 1 001 000 µs period; truncating would run 1 000 999 µs. The spec name
// prints the period with %g, which spells out every microsecond.
func TestChurnPeriodRounds(t *testing.T) {
	specs := churnStudySpecs(SweepConfig{Seed: 1, Churn: 1.001})
	for _, s := range specs[:2] { // the TopoSense and RLM arms on Topology B
		if !strings.Contains(s.Name, "/period=1.001s/") {
			t.Errorf("spec %s: want period=1.001s", s.Name)
		}
	}
}
