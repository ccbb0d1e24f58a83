package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
	"time"
)

// runner starts the benchmark's own binary again as a child process, one
// child per rep, so peak RSS, GC state and pools start clean every time.
// Children run one after another: the box is never loaded with more than
// one simulation at once.
type runner struct {
	exe    string
	outDir string
}

// scrubbed are the runtime knobs a child must not inherit: a rep's numbers
// are taken at the Go defaults, which the stamp records.
var scrubbed = []string{"GOGC", "GOMAXPROCS", "GODEBUG", "GOMEMLIMIT"}

func childEnv() []string {
	var env []string
next:
	for _, kv := range os.Environ() {
		for _, name := range scrubbed {
			if strings.HasPrefix(kv, name+"=") {
				continue next
			}
		}
		env = append(env, kv)
	}
	return env
}

func (r *runner) rep(wl workload, seed int64, traced bool) (repResult, error) {
	args := []string{"-rep", "-workload", wl.Name, "-seed", fmt.Sprint(seed), "-out", r.outDir}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(r.exe, args...)
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	var res repResult
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("rep child %s: %w", wl.Name, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return res, fmt.Errorf("rep child %s: bad result: %w", wl.Name, err)
	}
	return res, nil
}

// plan says how many timed rounds to run and whether a traced run follows.
type plan struct {
	rounds    int           // timed rounds; may grow to maxRounds when extend is set
	extend    bool          // add rounds while a workload's run_s spread is too wide
	budget    time.Duration // > 0: instead, run rounds until this much host time is used
	minRounds int           // with a budget: never fewer than this
	traced    bool
}

// reps are one workload's collected children.
type reps struct {
	wl     workload
	timed  []repResult
	traced *repResult
}

// collect runs the plan over wls. Rounds go round-robin — round 1 of every
// workload, then round 2 — so a noisy minute on a shared box hits every
// workload alike.
func (r *runner) collect(wls []workload, seed int64, p plan, progress io.Writer) ([]reps, error) {
	start := time.Now()
	out := make([]reps, len(wls))
	for i, wl := range wls {
		out[i].wl = wl
	}
	for round := 1; ; round++ {
		if p.budget > 0 {
			// A further round must fit: judge by how long the last one took.
			perRound := time.Since(start) / time.Duration(max(round-1, 1))
			if round > p.minRounds && time.Since(start)+perRound > p.budget {
				break
			}
		} else if round > p.rounds {
			runS := make([][]float64, len(out))
			for i := range out {
				runS[i] = column(out[i].timed, "run_s")
			}
			if !p.extend || !needsMoreRounds(runS, round-1) {
				break
			}
			fmt.Fprintf(progress, "run_s spread above %.0f%%: adding round %d\n", extendSpread*100, round)
		}
		for i, wl := range wls {
			res, err := r.rep(wl, seed, false)
			if err != nil {
				return nil, err
			}
			out[i].timed = append(out[i].timed, res)
			fmt.Fprintf(progress, "round %d %-14s run %.3fs setup %.4fs\n", round, wl.Name, res.Timed["run_s"], res.Timed["setup_s"])
		}
	}
	if p.traced {
		for i, wl := range wls {
			res, err := r.rep(wl, seed, true)
			if err != nil {
				return nil, err
			}
			out[i].traced = &res
			fmt.Fprintf(progress, "traced  %-14s run %.3fs\n", wl.Name, res.Timed["run_s"])
		}
	}
	return out, nil
}

func column(rs []repResult, name string) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.Timed[name]
	}
	return xs
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Over is set for host-time metrics: the samples the median is of.
	Over *summary `json:"over,omitempty"`
}

// workloadResult is everything reported for one workload.
type workloadResult struct {
	Workload   string  `json:"workload"`
	Why        string  `json:"why"`
	SimSeconds float64 `json:"sim_seconds"`
	Rounds     int     `json:"rounds"`
	// Attempted and Failed count operations: one receiver slot of one run.
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Digest    string           `json:"sim_digest"`
	EndToEnd  map[string]value `json:"end_to_end"`
	// PerLayer is nil when no traced run was made.
	PerLayer map[string]value `json:"per_layer,omitempty"`
	// Samples are the per-round raw values of every host-time metric.
	Samples map[string][]float64 `json:"samples"`
}

// reduce turns one workload's reps into its reported result and applies the
// checks that span runs: every rep of a (workload, seed) — traced or not —
// must produce the same sim_digest.
func reduce(rs reps) workloadResult {
	all := rs.timed
	if rs.traced != nil {
		all = append(all[:len(all):len(all)], *rs.traced)
	}
	first := all[0]
	res := workloadResult{
		Workload: rs.wl.Name, Why: rs.wl.Why, SimSeconds: rs.wl.SimS,
		Rounds: len(rs.timed), Digest: first.Digest,
		EndToEnd: map[string]value{}, Samples: map[string][]float64{},
	}
	sameDigest := true
	for _, r := range all {
		res.Attempted += r.Slots
		if len(r.Failures) > 0 {
			res.Failed += r.Slots
			res.Failures = append(res.Failures, r.Failures...)
		}
		if r.Digest != first.Digest {
			sameDigest = false
		}
	}
	if !sameDigest {
		res.Failed = res.Attempted
		res.Failures = append(res.Failures, "sim_digest differs between runs of the same workload and seed")
	}

	// With no timed rounds (-trace-only) the traced run stands in for them.
	timed := rs.timed
	if len(timed) == 0 {
		timed = all
	}
	get := func(d metricDef) value {
		v := value{Unit: d.Unit}
		switch d.Kind {
		case kindExact:
			v.Value = first.Exact[d.Name]
		case kindTimed:
			xs := column(timed, d.Name)
			s := summarize(xs)
			v.Value, v.Over = s.Median, &s
			res.Samples[d.Name] = xs
		case kindTrace, kindDrive:
			v.Value = rs.traced.Layer[d.Name]
		case kindDriver:
			switch d.Name {
			case "benchmark.rounds":
				v.Value = float64(len(rs.timed))
			case "benchmark.trace_overhead":
				v.Value = rs.traced.Timed["benchmark.run_raw_s"] / median(column(timed, "benchmark.run_raw_s"))
			}
		}
		return v
	}
	for _, d := range endToEnd {
		res.EndToEnd[d.Name] = get(d)
	}
	for _, d := range perLayer { // raw samples are kept even when no traced run reports the layers
		if d.Kind == kindTimed {
			res.Samples[d.Name] = column(timed, d.Name)
		}
	}
	if rs.traced != nil {
		res.PerLayer = map[string]value{}
		for _, d := range perLayer {
			res.PerLayer[d.Name] = get(d) // trace, drive and driver kinds are per-layer only
		}
	}
	return res
}

// document is a result file: what was measured, on what, and every sample.
type document struct {
	Stamp     stamp            `json:"stamp"`
	Seed      int64            `json:"seed"`
	Workloads []workloadResult `json:"workloads"`
}

func (d *document) failed() bool {
	for _, w := range d.Workloads {
		if w.Failed > 0 {
			return true
		}
	}
	return false
}

func (d *document) write(path string) error {
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// print writes every declared metric of every workload by name with its
// unit; host-time metrics show the samples behind the median.
func (d *document) print(w io.Writer) {
	fmt.Fprintf(w, "commit %s  %s  %s  nproc %d  GOMAXPROCS %d  GOGC %s  seed %d\n",
		d.Stamp.Commit, d.Stamp.GoVersion, d.Stamp.CPU, d.Stamp.NProc, d.Stamp.GoMaxProcs, d.Stamp.GOGC, d.Seed)
	line := func(name string, v value) {
		fmt.Fprintf(w, "  %-36s %14.6g %-6s", name, v.Value, v.Unit)
		if o := v.Over; o != nil {
			fmt.Fprintf(w, "  min %.6g q1 %.6g q3 %.6g max %.6g n %d", o.Min, o.Q1, o.Q3, o.Max, o.N)
		}
		fmt.Fprintln(w)
	}
	for _, wr := range d.Workloads {
		fmt.Fprintf(w, "\n%s  (%g simulated s, %d timed rounds, sim_digest %s)\n", wr.Workload, wr.SimSeconds, wr.Rounds, wr.Digest)
		fmt.Fprintf(w, "  operations attempted %d, failed %d\n", wr.Attempted, wr.Failed)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAILED CHECK: %s\n", f)
		}
		for _, m := range endToEnd {
			line(m.Name, wr.EndToEnd[m.Name])
		}
		if wr.PerLayer != nil {
			for _, m := range perLayer {
				line(m.Name, wr.PerLayer[m.Name])
			}
		}
	}
}

// setupFloor is the absolute slack on setup_s: on paperB16-vbr set-up takes
// about a millisecond, where a quarter of the median is timer noise.
const setupFloor = 0.02

// compareAA prints, per workload and end-to-end metric, the two values of
// two protocol runs on the same code, their gap as a share of the first,
// and the bound, and reports whether every gap is inside its bound and
// every exact number identical.
func compareAA(a, b *document, w io.Writer) bool {
	ok := true
	fmt.Fprintf(w, "\nA/A: two runs of the protocol on the same code\n")
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "gap", "bound")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, m := range endToEnd {
			x, y := wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value
			gap := math.Abs(y-x) / math.Abs(x)
			verdict := ""
			switch {
			case m.Kind == kindExact && x != y:
				verdict = "  DIFFERS (exact metric)"
			case m.Name == "setup_s" && math.Abs(y-x) <= setupFloor:
			case m.Kind != kindExact && gap > m.Bound:
				verdict = "  OUTSIDE BOUND"
			}
			if verdict != "" {
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-20s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", wa.Workload, m.Name, x, y, gap*100, m.Bound*100, verdict)
		}
		if wa.Digest != wb.Digest {
			ok = false
			fmt.Fprintf(w, "%-14s sim_digest %s vs %s  DIFFERS\n", wa.Workload, wa.Digest, wb.Digest)
		}
		for _, m := range perLayer {
			if m.Kind == kindExact && wa.PerLayer != nil && wa.PerLayer[m.Name].Value != wb.PerLayer[m.Name].Value {
				ok = false
				fmt.Fprintf(w, "%-14s %s %v vs %v  DIFFERS (exact counter)\n", wa.Workload, m.Name, wa.PerLayer[m.Name].Value, wb.PerLayer[m.Name].Value)
			}
		}
	}
	return ok
}
