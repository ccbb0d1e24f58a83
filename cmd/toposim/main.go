// Command toposim runs a single TopoSense simulation scenario and reports
// per-receiver outcomes: final subscription level, optimal level, relative
// deviation, change count and loss summary. Useful for exploring parameter
// choices interactively.
//
// The flags that describe the run bind to one experiments.Scenario, which
// validates them and assembles the world; the run executes as one
// experiments.Spec, so it gets the same panic containment and run metadata
// (wall time, events, packets) as the topobench sweeps, and -json writes
// the same BENCH_*.json schema.
//
// Usage:
//
//	toposim -topo a,rxset=4 -traffic vbr3 -duration 600
//	toposim -topo b,sessions=8 -staleness 6
//	toposim -topo b,sessions=4 -failat 200 -outage 60   # cut the bottleneck mid-run
//	toposim -topo tiered,seed=3
//	toposim -topo tree,depth=3,branch=8,rxleaf=2 -duration 30   # generated large topology
//	toposim -topo tree,depth=4,branch=10,rxleaf=10 -shards 4    # sharded engine, 4 workers
//	toposim -topo tree,depth=3,branch=8,rxleaf=2 -aggregate     # in-network report aggregation
//	toposim -topo tree,depth=3,branch=4,rxleaf=2 -federate -churn 4   # churn under per-domain leaf controllers
//	toposim -topo list                           # list registered generators and keys
//	toposim -topo b,sessions=4 -algo rlm         # RLM baseline instead
//	toposim -topo a -json BENCH_simA.json        # machine-readable result
//	toposim -topo b -obs OBS_sim.json            # observability export (.json or .csv)
//	toposim -topo b -flightrec                   # dump the flight recorder after the run
//	toposim -topo b -cpuprofile cpu.pprof -memprofile mem.pprof   # also mem.pprof.start
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"toposense/internal/core"
	"toposense/internal/experiments"
	"toposense/internal/metrics"
	"toposense/internal/obs"
	"toposense/internal/prof"
	"toposense/internal/receiver"
	"toposense/internal/sim"
	"toposense/internal/topology"
	"toposense/internal/trace"
)

// receiverRow is one receiver's outcome — the typed rows the run's Result
// carries (and -json exports).
type receiverRow struct {
	Receiver  string  `json:"receiver"`
	Level     int     `json:"final_level"`
	Optimal   int     `json:"optimal"`
	Deviation float64 `json:"rel_deviation"`
	Changes   int     `json:"changes"`
}

// simResult is the run's full payload: per-receiver rows plus the headline.
type simResult struct {
	Rows    []receiverRow `json:"rows"`
	MeanDev float64       `json:"mean_rel_deviation"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is a parsed command line: the run description plus where its
// outputs go.
type options struct {
	sc                                                experiments.Scenario
	tsvDir, jsonPath, obsPath, cpuprofile, memprofile string
	flightrec                                         bool
}

// parse turns args into options, or reports on stderr why it cannot and
// returns the error — the only kind run answers with exit 2. `-topo list`
// is returned as is, unvalidated.
func parse(args []string, stderr io.Writer) (*options, error) {
	o := &options{sc: experiments.DefaultScenario()}
	fs := flag.NewFlagSet("toposim", flag.ContinueOnError)
	o.sc.Bind(fs)
	fs.StringVar(&o.tsvDir, "tsv", "", "directory to write per-receiver level/loss time series as TSV")
	fs.StringVar(&o.jsonPath, "json", "", "write the result + run metadata to this file (e.g. BENCH_sim.json)")
	fs.StringVar(&o.obsPath, "obs", "", "enable observability and write its export to this file (.json or .csv)")
	fs.BoolVar(&o.flightrec, "flightrec", false, "enable observability and dump the flight recorder to stderr after the run")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "record every allocation; write pprof heap profiles to this file after the run and to FILE.start after set-up")
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil || o.sc.Topo == "list" {
		return o, err // the flag package has reported its own error
	}
	err := o.sc.Validate()
	ext := strings.ToLower(filepath.Ext(o.obsPath))
	if err == nil && o.obsPath != "" && ext != ".json" && ext != ".csv" {
		err = fmt.Errorf("-obs %q: extension must be .json or .csv", o.obsPath)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
	}
	return o, err
}

// run is the whole command: parse, validate, assemble, simulate, print. It
// returns the process exit code — 2 for a usage error, reported before any
// simulator event fires; 1 for a run or output failure.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parse(args, stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	case o.sc.Topo == "list":
		fmt.Fprint(stdout, topology.Usage())
		return 0
	}
	sc := o.sc
	if o.memprofile != "" {
		// Sample every allocation, so the run phase's count is exact: the
		// difference of the profile written after World.Start and the one
		// written after the run (scripts/hotallocs.sh).
		defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
		runtime.MemProfileRate = 1
	}
	stopProf, err := prof.Start(o.cpuprofile, "")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	algo := "toposense"
	if sc.Plane == experiments.PlaneRLM {
		algo = "rlm"
	}
	dur := sim.FromSeconds(sc.Duration)
	runName := fmt.Sprintf("toposim/topo=%s/%s/%s", sc.Topo, sc.Traffic.Name, algo)
	if sc.Plane == experiments.PlaneFederated {
		runName += "/fed"
	}
	// The flight recorder lives inside the run's obs bundle; capture it from
	// the body so -flightrec can dump it after Execute returns.
	var runObs *obs.Obs
	spec := experiments.NewSpec("toposim", runName, sc.Seed, dur,
		func(m *experiments.Meter) (any, error) {
			w, err := sc.Assemble(m)
			if err != nil {
				return nil, err
			}
			runObs = m.Obs()
			if o.memprofile != "" {
				w.Start()
				if err := prof.WriteHeap(o.memprofile + ".start"); err != nil {
					return nil, err
				}
			}
			var sampler *trace.Sampler
			if o.tsvDir != "" {
				sampler = sampleSlots(w)
			}
			w.Run(dur)
			if o.memprofile != "" {
				if err := prof.WriteHeap(o.memprofile); err != nil {
					return nil, err
				}
			}
			printSummary(stdout, sc, w)
			if sampler != nil {
				if err := writeTSVs(o.tsvDir, sampler); err != nil {
					return nil, fmt.Errorf("tsv: %w", err)
				}
				fmt.Fprintf(stdout, "wrote %d series to %s\n", len(sampler.Names()), o.tsvDir)
			}

			traces, optima := w.AllTraces()
			res := simResult{MeanDev: metrics.MeanRelativeDeviation(traces, optima, 0, dur)}
			for k, sl := range w.Slots() {
				s, i := sl.Session, sl.Index
				res.Rows = append(res.Rows, receiverRow{
					Receiver:  fmt.Sprintf("s%d/%s", s, w.Build.Receivers[s][i].Name),
					Level:     w.Level(s, i),
					Optimal:   optima[k],
					Deviation: traces[k].RelativeDeviation(optima[k], 0, dur),
					Changes:   traces[k].Changes(0, dur),
				})
			}
			return res, nil
		})
	if o.obsPath != "" || o.flightrec {
		spec.Obs = true
	}

	export := experiments.Measure("toposim", sc.Seed, func() []experiments.Result {
		return []experiments.Result{spec.Execute(0)}
	})
	export.Parallelism = 1
	result := export.Results[0]
	// Profiles cover the simulation itself, not report formatting.
	if err := stopProf(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if o.flightrec && runObs != nil {
		runObs.Rec.WriteLog(stderr)
	}
	if result.Failed() {
		fmt.Fprintf(stderr, "run failed: %s\n", result.Err)
		return 1
	}
	if o.obsPath != "" {
		write := result.Obs.WriteJSON
		if strings.EqualFold(filepath.Ext(o.obsPath), ".csv") {
			write = result.Obs.WriteCSV
		}
		if err := experiments.WriteFile(o.obsPath, write); err != nil {
			fmt.Fprintf(stderr, "writing %s: %v\n", o.obsPath, err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote observability export to %s\n", o.obsPath)
	}
	res := result.Rows.(simResult)

	t := &experiments.Table{
		Title:  fmt.Sprintf("Topology %s, %s, %s, %.0f s", sc.Topo, sc.Traffic.Name, algo, sc.Duration),
		Header: []string{"receiver", "final level", "optimal", "rel deviation", "changes"},
	}
	for _, r := range res.Rows {
		t.AddRow(
			r.Receiver,
			fmt.Sprintf("%d", r.Level),
			fmt.Sprintf("%d", r.Optimal),
			fmt.Sprintf("%.3f", r.Deviation),
			fmt.Sprintf("%d", r.Changes),
		)
	}
	fmt.Fprint(stdout, t)
	fmt.Fprintf(stdout, "mean relative deviation: %.3f\n", res.MeanDev)
	events := float64(max(result.Events, 1))
	posts := float64(max(result.PostsLaned+result.PostsFellBack, 1))
	fmt.Fprintf(stdout, "run: %.2fs wall, %d events (%.0f events/s), %d packets forwarded, %.0f%% of events chained (%.1f%% of posts laned, %d fell back), %.3fs barrier stall\n",
		result.WallSeconds, result.Events, result.EventsPerSecond, result.Packets,
		100*float64(result.EventsChained)/events, 100*float64(result.PostsLaned)/posts, result.PostsFellBack, float64(result.BarrierStallNanos)/1e9)

	if o.jsonPath != "" {
		if err := experiments.WriteFile(o.jsonPath, export.WriteJSON); err != nil {
			fmt.Fprintf(stderr, "writing %s: %v\n", o.jsonPath, err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote result to %s\n", o.jsonPath)
	}
	return 0
}

// sampleSlots starts a 500 ms sampler over every slot's level (and, under a
// controller plane, last reported loss). It samples through the slot's live
// incarnation, so a churned series reads 0 while departed and follows each
// rejoin.
func sampleSlots(w *experiments.World) *trace.Sampler {
	sampler := trace.NewSampler(w.Engine, 500*sim.Millisecond)
	for _, sl := range w.Slots() {
		s, i := sl.Session, sl.Index
		name := fmt.Sprintf("s%d-%s", s, w.Build.Receivers[s][i].Name)
		sampler.Probe(name+".level", func() float64 { return float64(w.Level(s, i)) })
		if w.Receivers != nil {
			sampler.Probe(name+".loss", func() float64 {
				if rx, ok := w.Live(s, i).(*receiver.Receiver); ok {
					return rx.LastLoss
				}
				return 0
			})
		}
	}
	sampler.Start()
	return sampler
}

// printSummary prints one line (or block) per subsystem the scenario
// switched on, from the finished world's counters.
func printSummary(out io.Writer, sc experiments.Scenario, w *experiments.World) {
	if w.Controller != nil {
		fmt.Fprintf(out, "controller: %d steps, %d suggestions sent, %d reports received\n",
			w.Controller.StepsRun, w.Controller.SuggestionsSent, w.Controller.ReportsRecv)
	}
	if w.Parent != nil {
		fmt.Fprintf(out, "federation: %d domains, %d exports received, %d reconcile passes, %d budget changes\n",
			len(w.Leaves), w.Parent.ExportsRecv, w.Parent.Reconciles, w.Parent.BudgetChanges)
		for k, l := range w.Leaves {
			ctrl := w.Controllers[k]
			changes, last := w.Parent.ChangesFor(l.Domain)
			fmt.Fprintf(out, "  domain %d: ceiling %d, %d exports sent, %d budget entries (last change %.0f s), %d suggestions capped, %d steps\n",
				l.Domain, w.Parent.Ceiling(l.Domain), l.ExportsSent, changes, last.Seconds(), ctrl.SuggestionsCapped, ctrl.StepsRun)
		}
	}
	if sc.Churn > 0 {
		fmt.Fprintf(out, "churn: %d joins, %d leaves", w.Churn.Joins, w.Churn.Leaves)
		if len(w.Controllers) > 0 {
			var deregs int64
			registered := 0
			for _, c := range w.Controllers {
				deregs += c.DeregistersRecv
				registered += len(c.RegisteredReceivers())
			}
			fmt.Fprintf(out, ", %d deregisters consumed, %d receivers registered at end", deregs, registered)
		}
		fmt.Fprintln(out)
	}
	if sc.Aggregate {
		fmt.Fprintf(out, "aggregation: %d reports absorbed in-network, %d merges, %d flushes, %d sub-batches down\n",
			w.Aggregator.Absorbed, w.Aggregator.Merged, w.Aggregator.Flushes, w.Aggregator.Batches)
		fmt.Fprintf(out, "controller fan-in: %d control msgs (%d modeled bytes), %d aggregates, %d batches out\n",
			w.Controller.CtlMsgsRecv, w.Controller.CtlBytesRecv, w.Controller.AggregatesRecv, w.Controller.BatchesSent)
	}
	if sc.ProbeDiscovery && w.Tool != nil {
		fmt.Fprintf(out, "discovery: %d probe packets over %d discoveries\n", w.Tool.ProbePackets, w.Tool.Discoveries)
	}
	if sc.Explain {
		fmt.Fprintln(out, "\nfinal interval decisions:")
		fmt.Fprint(out, core.FormatDecisions(w.Controller.Algorithm().LastDecisions()))
	}
	if w.Faults != nil {
		fmt.Fprintf(out, "faults: bottleneck down %.0f-%.0f s (%d link failures, %d repairs, %d packets unroutable)\n",
			sc.FailAt, sc.FailAt+sc.Outage, w.Faults.Failures, w.Faults.Repairs, w.Net.Unroutable)
	}
}

// writeTSVs dumps every sampled series as <name>.tsv under dir.
func writeTSVs(dir string, sampler *trace.Sampler) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range sampler.Names() {
		if err := experiments.WriteFile(filepath.Join(dir, name+".tsv"), sampler.Series(name).WriteTSV); err != nil {
			return err
		}
	}
	return nil
}
