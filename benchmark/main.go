// Command benchmark is the repository's benchmark: four full-stack
// workloads, eight end-to-end metrics and a per-layer ledger, all measured
// from outside the program through its public entry points and exported
// counters. BENCHMARK.json at the repository root declares what it prints;
// README.md explains every workload and metric.
//
//	go run -C benchmark .                       the whole protocol, seed 1
//	go run -C benchmark . -seed 2 -rounds 5
//	go run -C benchmark . -workload tree1k-agg
//	go run -C benchmark . -aa                   protocol twice, A/A comparison
//	go run -C benchmark . -trace-only           traced runs and drives only
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The last form is the one BENCHMARK.json names: one workload, timed reps
// for S host seconds, and as the last line of output one JSON object with
// the end-to-end (--trace 0) or per-layer (--trace 1) metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 1, "workload seed; 2 is the held-out seed a claim must also hold on")
	rounds := flag.Int("rounds", defaultRounds, "timed rounds per workload; grows to 11 while a run_s spread exceeds 8%")
	aa := flag.Bool("aa", false, "run the protocol twice on the same code and compare the two")
	traceOnly := flag.Bool("trace-only", false, "skip the timed rounds: traced runs and layer drives only")
	seconds := flag.Float64("seconds", 0, "time-boxed mode: one workload, timed reps until this many host seconds are used, result as one JSON line")
	trace := flag.Int("trace", 0, "time-boxed mode: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	outDir := flag.String("out", "", "directory for result and span files (default: the benchmark's out/)")
	isRep := flag.Bool("rep", false, "internal: run one rep of -workload in this process and print its result")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *outDir == "" {
		*outDir = filepath.Join(root, "benchmark", "out")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	wls := workloads
	if *name != "" {
		wl, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		wls = []workload{wl}
	}

	if *isRep {
		res, err := runRep(wls[0], *seed, *trace == 1, *outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	r := &runner{exe: exe, outDir: *outDir}
	st := machineStamp(root)

	if *seconds > 0 {
		if *name == "" {
			fmt.Fprintln(os.Stderr, "-seconds needs -workload")
			return 2
		}
		return timeBoxed(r, st, wls[0], *seed, *seconds, *trace == 1)
	}

	p := plan{rounds: *rounds, extend: true, traced: true}
	if *traceOnly {
		p.rounds, p.extend = 0, false
	}
	protocol := func(tag string) (*document, error) {
		rs, err := r.collect(wls, *seed, p, os.Stderr)
		if err != nil {
			return nil, err
		}
		doc := &document{Stamp: st, Seed: *seed}
		for _, x := range rs {
			doc.Workloads = append(doc.Workloads, reduce(x))
		}
		doc.print(os.Stdout)
		return doc, doc.write(filepath.Join(*outDir, fmt.Sprintf("result-seed%d%s.json", *seed, tag)))
	}
	first, err := protocol("")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ok := !first.failed()
	if *aa {
		second, err := protocol("-aa")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		ok = ok && !second.failed() && compareAA(first, second, os.Stdout)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: a check failed")
		return 1
	}
	return 0
}

// tracedShare is the part of a time-boxed traced invocation spent on timed
// reps; the traced run and the drives take the rest.
const tracedShare = 0.4

// timeBoxed is the mode BENCHMARK.json's command runs: reps of one workload
// until the host-time budget is used, then the result as one JSON line.
func timeBoxed(r *runner, st stamp, wl workload, seed int64, seconds float64, traced bool) int {
	p := plan{budget: time.Duration(seconds * float64(time.Second)), minRounds: 3, traced: traced}
	if traced {
		p.budget = time.Duration(float64(p.budget) * tracedShare)
	}
	rs, err := r.collect([]workload{wl}, seed, p, io.Discard)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	res := reduce(rs[0])
	doc := &document{Stamp: st, Seed: seed, Workloads: []workloadResult{res}}
	if err := doc.write(filepath.Join(r.outDir, fmt.Sprintf("run-%s-seed%d-trace%t.json", wl.Name, seed, traced))); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	doc.print(os.Stdout)

	metrics := res.EndToEnd
	if traced {
		metrics = res.PerLayer
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for name, v := range metrics {
		line.Metrics[name] = value{Value: v.Value, Unit: v.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(out))
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// findRoot locates the repository root — the directory holding
// BENCHMARK.json — from the working directory, which is the root itself
// under benchmark/run.sh and benchmark/ under `go run -C benchmark .`.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in %s or its parent: run from the repository root or from benchmark/", wd)
}
