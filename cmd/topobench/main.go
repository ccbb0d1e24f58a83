// Command topobench regenerates the paper's evaluation: every figure of
// "Using Tree Topology for Multicast Congestion Control" (Jagannathan &
// Almeroth, ICPP 2001), plus a TopoSense-vs-RLM baseline comparison and a
// robustness experiment (fig_failure) that cuts and repairs the Topology B
// bottleneck mid-run.
//
// Each figure enumerates its sweep as independent experiments.Spec runs;
// a bounded worker pool (internal/runner) fans them out across cores and
// reassembles results in sweep order, so the report is byte-identical
// whatever the parallelism.
//
// Usage:
//
//	topobench                       # all figures at paper scale (1200 s runs)
//	topobench -fig 8                # just Figure 8
//	topobench -fig fig_failure      # bottleneck failure/repair robustness run
//	topobench -quick                # scaled-down sweep (~20x faster)
//	topobench -seed 7               # different random seed
//	topobench -parallel 8           # 8 worker goroutines (0 = GOMAXPROCS)
//	topobench -fig 7 -shards 4      # sharded engine, 4 workers per run (figs 6, 7, fig_scale)
//	topobench -fig fig_scale -aggregate  # fig_scale with in-network aggregation twins
//	topobench -fig fig_churn -churn 4    # membership churn study, period pinned to 4 s
//	topobench -json BENCH_full.json # machine-readable results + run metadata
//	topobench -obs -json BENCH.json # embed each run's observability export
//	topobench -timeout 10m         # per-run wall-clock budget
//	topobench -quick -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"toposense/internal/experiments"
	"toposense/internal/prof"
	"toposense/internal/runner"
	"toposense/internal/topology"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is a parsed command line: which experiments to run, the sweep
// modifiers they take, and how to run and report them.
type options struct {
	selected               []experiments.Experiment
	cfg                    experiments.SweepConfig
	parallel               int
	timeout                time.Duration
	obs, progress          bool
	jsonPath               string
	cpuprofile, memprofile string
}

// parse turns args into options, or reports on stderr why it cannot and
// returns the error — the only kind run answers with exit 2. The sweep
// modifiers land in one run description — the default run with the
// modifiers applied, on the topology they shape: fig_scale's -topo, else its
// default tree ladder — so a combination is judged by the same
// Scenario.Validate as a toposim run.
func parse(args []string, stderr io.Writer) (*options, error) {
	o := &options{selected: experiments.Registry()}
	sc := experiments.DefaultScenario()
	fs := flag.NewFlagSet("topobench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "which experiment to run: all or one of "+strings.Join(experiments.Names(), ", "))
	fs.StringVar(&o.cfg.Topo, "topo", "", "topology selection for experiments that take one (fig_scale): a registered family ("+strings.Join(topology.Names(), ", ")+") for its ladder, or a full name,key=val spec for a single point")
	fs.BoolVar(&o.cfg.Quick, "quick", false, "scaled-down runs (shorter duration, fewer points)")
	fs.Int64Var(&sc.Seed, "seed", sc.Seed, "simulation seed")
	fs.IntVar(&o.parallel, "parallel", 0, "concurrent runs (0 = GOMAXPROCS)")
	fs.IntVar(&sc.Shards, "shards", 0, "engine workers per run: 0 = single-threaded engine, N >= 1 = sharded engine with N workers (honoured by figures 6, 7 and fig_scale; fig_scale then adds a speedup column)")
	fs.BoolVar(&sc.Aggregate, "aggregate", false, "fig_scale: run an in-network-aggregation twin of every ladder point (control fan-in columns both ways)")
	fs.BoolVar(&o.cfg.Federate, "federate", false, "fig_scale: run a hierarchical-control-plane twin of every ladder point (fig_federation always runs federated)")
	fs.Float64Var(&sc.Churn, "churn", 0, "fig_churn: pin the mean join/leave period to this many simulated seconds instead of the default sweep around the decision interval (0 = default sweep)")
	fs.StringVar(&o.jsonPath, "json", "", "write results + run metadata to this file (e.g. BENCH_full.json)")
	fs.DurationVar(&o.timeout, "timeout", 0, "per-run wall-clock budget (0 = none)")
	fs.BoolVar(&o.obs, "obs", false, "enable per-run observability; each result then carries an obs export (see -json)")
	fs.BoolVar(&o.progress, "progress", true, "report per-run completion on stderr")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a pprof heap profile after the sweep to this file")
	fs.SetOutput(stderr)
	err := fs.Parse(args)
	if err != nil {
		return nil, err // the flag package has reported it
	}
	if *fig != "all" {
		ex, ok := experiments.Lookup(*fig)
		if !ok {
			err = fmt.Errorf("unknown figure %q; valid names: all, %s", *fig, strings.Join(experiments.Names(), ", "))
		}
		o.selected = []experiments.Experiment{ex}
	}
	sc.Topo = cmp.Or(o.cfg.Topo, "tree")
	if o.cfg.Federate {
		sc.Plane = experiments.PlaneFederated
	}
	if err == nil {
		err = sc.Validate()
	}
	// fig_failure hosts fault injection internally, so selecting it stands in
	// for a -failat: with -shards or -federate it must be rejected up front
	// instead of silently running that experiment on the serial flat control
	// plane while the rest of the sweep shards.
	if err == nil && slices.ContainsFunc(o.selected, func(ex experiments.Experiment) bool { return ex.Name == "fig_failure" }) {
		sc.FailAt = 1
		if err = sc.Validate(); err != nil {
			err = fmt.Errorf("%w\n(fig_failure injects faults mid-run; run it separately without the conflicting flag)", err)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return nil, err
	}
	o.cfg.Seed, o.cfg.Shards, o.cfg.Aggregate, o.cfg.Churn = sc.Seed, sc.Shards, sc.Aggregate, sc.Churn
	return o, nil
}

// run is the whole command. It returns the process exit code — 2 for a
// usage error, reported before any run starts; 1 when a run or an output
// file failed.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parse(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	stopProf, err := prof.Start(o.cpuprofile, o.memprofile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	// Enumerate every selected experiment's specs into one flat work list,
	// remembering each experiment's slice so results can be rendered per
	// experiment afterwards.
	var specs []experiments.Spec
	type slice struct{ lo, hi int }
	slices := make([]slice, len(o.selected))
	for i, ex := range o.selected {
		s := ex.Specs(o.cfg)
		slices[i] = slice{len(specs), len(specs) + len(s)}
		specs = append(specs, s...)
	}
	if o.obs {
		for i := range specs {
			specs[i].Obs = true
		}
	}

	opts := runner.Options{Parallelism: o.parallel, Timeout: o.timeout}
	if o.progress {
		opts.OnProgress = func(done, total int, r experiments.Result) {
			status := fmt.Sprintf("%.1fs", r.WallSeconds)
			if r.Failed() {
				status = "FAILED: " + r.Err
			}
			fmt.Fprintf(stderr, "[%d/%d] %s (%s)\n", done, total, r.Name, status)
		}
	}

	export := experiments.Measure("topobench", o.cfg.Seed, func() []experiments.Result {
		return runner.Run(specs, opts)
	})
	export.Quick = o.cfg.Quick
	export.Parallelism = runner.Workers(o.parallel, len(specs))
	results := export.Results

	exitCode := 0
	// Profiles cover the sweep only; stop before rendering so report
	// formatting does not pollute them.
	if err := stopProf(); err != nil {
		fmt.Fprintln(stderr, err)
		exitCode = 1
	}
	for i, ex := range o.selected {
		out, err := ex.Render(results[slices[i].lo:slices[i].hi])
		if err != nil {
			fmt.Fprintf(stderr, "experiment %s: %v\n", ex.Name, err)
			exitCode = 1
			continue
		}
		fmt.Fprint(stdout, out)
	}
	wall := time.Duration(export.WallSeconds * float64(time.Second))
	fmt.Fprintf(stdout, "total wall time: %v\n", wall.Round(time.Millisecond))
	if wall > 0 && export.TotalEvents > 0 {
		// Stderr, like progress: stdout stays deterministic up to the wall-time line.
		fmt.Fprintf(stderr, "throughput: %d events, %.0f events/s aggregate, %.2f allocs/event\n",
			export.TotalEvents, export.EventsPerSecond, export.AllocsPerEvent)
	}

	if o.jsonPath != "" {
		if err := experiments.WriteFile(o.jsonPath, export.WriteJSON); err != nil {
			fmt.Fprintf(stderr, "writing %s: %v\n", o.jsonPath, err)
			exitCode = 1
		} else {
			fmt.Fprintf(stderr, "wrote %d results to %s\n", len(results), o.jsonPath)
		}
	}
	return exitCode
}
