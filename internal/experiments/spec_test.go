package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestExecuteFillsMetadata(t *testing.T) {
	res := quickSpecs(t, "6")[0].Execute(0)
	if res.Failed() {
		t.Fatalf("run failed: %s", res.Err)
	}
	if res.Events == 0 {
		t.Error("Events = 0; meter saw no engine")
	}
	if res.Packets == 0 {
		t.Error("Packets = 0; meter saw no network")
	}
	if res.WallSeconds <= 0 || res.EventsPerSecond <= 0 {
		t.Errorf("wall metadata missing: %+v", res)
	}
	if res.SimSeconds != QuickDuration.Seconds() {
		t.Errorf("SimSeconds = %v, want %v", res.SimSeconds, QuickDuration.Seconds())
	}
	if rows, ok := res.Rows.([]StabilityRow); !ok || len(rows) != 1 {
		t.Errorf("rows: %#v", res.Rows)
	}
}

func TestGatherRowsErrors(t *testing.T) {
	failed := []Result{{Name: "x", Err: "boom"}}
	if _, err := GatherRows[StabilityRow](failed); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("failed result not surfaced: %v", err)
	}
	mismatch := []Result{{Name: "y", Rows: []int{1}}}
	if _, err := GatherRows[StabilityRow](mismatch); err == nil || !strings.Contains(err.Error(), "want") {
		t.Errorf("type mismatch not surfaced: %v", err)
	}
	// single, the one-run form behind figure 9 and fig_failure.
	for _, c := range []struct {
		results []Result
		frag    string
	}{
		{failed, "boom"},
		{mismatch, "want *experiments.Fig9Result"},
		{nil, "got 0"},
		{append(failed, failed...), "got 2"},
	} {
		if _, err := single[*Fig9Result](c.results); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("single(%d results): error %v, want it to mention %q", len(c.results), err, c.frag)
		}
	}
}

// quickSpecs returns the named registry experiment's quick form at seed 1 —
// what `topobench -fig NAME -quick` runs.
func quickSpecs(t testing.TB, name string) []Spec {
	t.Helper()
	ex, ok := Lookup(name)
	if !ok {
		t.Fatalf("%s not in the registry", name)
	}
	return ex.Specs(SweepConfig{Seed: 1, Quick: true})
}

// gather executes specs serially and returns their typed rows, failing the
// test on the first failed run.
func gather[T any](t testing.TB, specs []Spec) []T {
	t.Helper()
	rows, err := GatherRows[T](ExecuteAll(specs))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// runSingle executes a one-run sweep and returns its typed result, failing
// the test if the run failed.
func runSingle[T any](t testing.TB, specs []Spec) T {
	t.Helper()
	res, err := single[T](ExecuteAll(specs))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("empty registry")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate registry name %q", n)
		}
		seen[n] = true
		ex, ok := Lookup(n)
		if !ok || ex.Name != n {
			t.Errorf("Lookup(%q) = %+v, %v", n, ex, ok)
		}
		if ex.Specs == nil || ex.Render == nil {
			t.Errorf("entry %q incomplete", n)
		}
	}
	for _, want := range []string{"6", "9", "baseline", "extensions", "variance"} {
		if !seen[want] {
			t.Errorf("registry missing %q", want)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted an unknown name")
	}
}

func TestRegistryRender(t *testing.T) {
	ex, ok := Lookup("6")
	if !ok {
		t.Fatal("no figure 6")
	}
	out, err := ex.Render(ExecuteAll(ex.Specs(SweepConfig{Seed: 1, Quick: true})))
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "receivers") {
		t.Errorf("render output unexpected:\n%s", out)
	}
	// A failed result must turn into a render error, not a bogus table.
	if _, err := ex.Render([]Result{{Name: "x", Err: "boom"}}); err == nil {
		t.Error("render swallowed a failed result")
	}
}

func TestExportJSONRoundTrip(t *testing.T) {
	specs := quickSpecs(t, "6")[:1]
	ex := Export{
		Tool:        "topobench",
		GeneratedAt: "2026-01-01T00:00:00Z",
		GoMaxProcs:  1,
		Parallelism: 1,
		Seed:        1,
		WallSeconds: 0.5,
		Results:     ExecuteAll(specs),
	}
	var buf bytes.Buffer
	if err := ex.WriteJSON(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	results, ok := back["results"].([]any)
	if !ok || len(results) != 1 {
		t.Fatalf("results: %#v", back["results"])
	}
	r0 := results[0].(map[string]any)
	for _, key := range []string{"name", "figure", "seed", "wall_seconds", "events", "events_per_second", "packets_forwarded", "rows"} {
		if _, ok := r0[key]; !ok {
			t.Errorf("result JSON missing %q: %v", key, r0)
		}
	}
	if r0["name"] != "fig6/rx=2/CBR" {
		t.Errorf("name = %v", r0["name"])
	}
}

func TestFig9ResultMarshalJSON(t *testing.T) {
	res := runSingle[*Fig9Result](t, quickSpecs(t, "9"))
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back struct {
		WindowFromS float64       `json:"window_from_s"`
		Sessions    []Fig9Summary `json:"sessions"`
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back.Sessions) != fig9Sessions {
		t.Errorf("sessions in JSON: %d, want %d", len(back.Sessions), fig9Sessions)
	}
	for _, s := range back.Sessions {
		if s.MeanLevel <= 0 {
			t.Errorf("session %d mean level %v", s.Session, s.MeanLevel)
		}
	}
}
