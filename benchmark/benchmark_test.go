package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go and workloads.go")

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWL     `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is how long one time-boxed run measures. The driver makes
// 4 + 22 x 4 runs inside 3420 s with two builds, so a run may take about
// 34 s all told; 26 s leaves room for the builds and a slower box.
const runSeconds = 26

func declared() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}

// TestSchema holds BENCHMARK.json and the driver's tables together, and
// the names to the contract's alphabet.
func TestSchema(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := declared()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json does not match metrics.go/workloads.go; run go test -run TestSchema -update")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
}

// TestDigestStable: the same (workload, seed) gives the same digest, run
// after run and traced or not, and another seed gives another.
func TestDigestStable(t *testing.T) {
	dir := t.TempDir()
	a, err := runRep(smoke, 1, false, dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRep(smoke, 1, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := runRep(smoke, 2, false, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []repResult{a, b, c} {
		if len(r.Failures) > 0 {
			t.Errorf("seed %d traced %v: failed checks %v", r.Seed, r.Traced, r.Failures)
		}
	}
	if a.Digest != b.Digest {
		t.Errorf("tracing perturbed the simulation: digest %s timed, %s traced", a.Digest, b.Digest)
	}
	if a.Digest == c.Digest {
		t.Error("seeds 1 and 2 gave the same digest")
	}
	if digest(a.Exact, []int{1, 2}) == digest(a.Exact, []int{1, 3}) {
		t.Error("digest ignores final levels")
	}
}

// build compiles pkg into the test's temporary directory.
func build(t *testing.T, pkg, name string) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), name)
	if out, err := exec.Command("go", "build", "-o", exe, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return exe
}

// TestSmokeThroughChildren drives the smoke workload through the real
// child-process path: the whole protocol with its traced run, then both
// time-boxed forms, whose printed metric names must be exactly the
// declared ones.
func TestSmokeThroughChildren(t *testing.T) {
	exe := build(t, ".", "benchmark")
	out := t.TempDir()

	text, err := exec.Command(exe, "-workload", "smoke", "-rounds", "2", "-out", out).Output()
	if err != nil {
		t.Fatalf("protocol run: %v\n%s", err, text)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(d.Name) + ` +\S+ ` + regexp.QuoteMeta(d.Unit) + `( |$)`).Match(text) {
			t.Errorf("protocol output lacks metric %s with unit %s", d.Name, d.Unit)
		}
	}

	var doc document
	data, err := os.ReadFile(filepath.Join(out, "result-seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	w := doc.Workloads[0]
	if w.Rounds < 2 || w.Attempted != (w.Rounds+1)*18 || w.Failed != 0 {
		t.Errorf("rounds %d, attempted %d, failed %d", w.Rounds, w.Attempted, w.Failed)
	}
	if n := len(w.Samples["run_s"]); n != w.Rounds {
		t.Errorf("%d run_s samples for %d rounds", n, w.Rounds)
	}

	// The span file: set-up's children account for set-up, slices for the run.
	var spans []span
	data, err = os.ReadFile(filepath.Join(out, "trace-smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	total := map[string]int64{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			total[p.Name+">"+s.Name] += s.EndNS - s.StartNS
		}
		if s.Parent == 0 {
			total[s.Name] += s.EndNS - s.StartNS
		}
	}
	if total["run>slice"] == 0 || total["slice>core.step"] == 0 || total["drive>drive.sim"] == 0 {
		t.Errorf("span tree is missing levels: %v", total)
	}
	if got, want := float64(total["run>slice"]), float64(total["run"]); got < 0.9*want || got > want {
		t.Errorf("slices sum to %v ns of a %v ns run", got, want)
	}

	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		text, err := exec.Command(exe, "--workload", "smoke", "--seed", "2", "--seconds", "0.3", "--trace", trace, "-out", out).Output()
		if err != nil {
			t.Fatalf("time-boxed run, trace %s: %v\n%s", trace, err, text)
		}
		lines := strings.Split(strings.TrimSpace(string(text)), "\n")
		var res struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result object: %v", trace, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %s: correct %v attempted %d failed %d", trace, res.Correct, res.Attempted, res.Failed)
		}
		var got, want []string
		for n := range res.Metrics {
			got = append(got, n)
		}
		for _, d := range defs {
			want = append(want, d.Name)
			if res.Metrics[d.Name].Unit != d.Unit {
				t.Errorf("trace %s: %s printed with unit %q, declared %q", trace, d.Name, res.Metrics[d.Name].Unit, d.Unit)
			}
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace %s: printed metrics %v, declared %v", trace, got, want)
		}
	}
}

// TestParityWithToposim: assemble.go builds the world cmd/toposim builds.
// The same spec and seed must give the same events, packets forwarded,
// joins, leaves and deregisters.
func TestParityWithToposim(t *testing.T) {
	wl := smoke
	wl.SimS = 20
	toposim := build(t, "toposense/cmd/toposim", "toposim")
	text, err := exec.Command(toposim, "-topo", wl.Topo, "-aggregate", "-churn", fmt.Sprint(wl.Churn),
		"-duration", fmt.Sprint(wl.SimS), "-seed", "3").Output()
	if err != nil {
		t.Fatalf("toposim: %v\n%s", err, text)
	}
	var events, packets, joins, leaves, deregs float64
	for _, line := range strings.Split(string(text), "\n") {
		var wall, rate float64
		if n, _ := fmt.Sscanf(line, "run: %fs wall, %f events (%f events/s), %f packets forwarded", &wall, &events, &rate, &packets); n == 4 {
			continue
		}
		fmt.Sscanf(line, "churn: %f joins, %f leaves, %f deregisters consumed", &joins, &leaves, &deregs)
	}
	if events == 0 || joins == 0 {
		t.Fatalf("could not read toposim's summary lines:\n%s", text)
	}
	res, err := runRep(wl, 3, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"sim.events": events, "netsim.pkt_hops": packets,
		"churn.joins": joins, "churn.leaves": leaves, "controller.deregisters_recv": deregs,
	} {
		if got := res.Exact[name]; got != want {
			t.Errorf("%s: benchmark %v, toposim %v", name, got, want)
		}
	}
}
