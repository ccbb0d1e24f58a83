// Command toposim runs a single TopoSense simulation scenario and reports
// per-receiver outcomes: final subscription level, optimal level, relative
// deviation, change count and loss summary. Useful for exploring parameter
// choices interactively.
//
// The run executes as one experiments.Spec, so it gets the same panic
// containment and run metadata (wall time, events, packets) as the
// topobench sweeps, and -json writes the same BENCH_*.json schema.
//
// Usage:
//
//	toposim -topology A -receivers 4 -traffic vbr3 -duration 600
//	toposim -topology B -sessions 8 -staleness 6
//	toposim -topology B -failat 200 -outage 60   # cut the bottleneck mid-run
//	toposim -topology tiered -seed 3
//	toposim -topo tree,depth=3,branch=8,rxleaf=2 -duration 30   # generated large topology
//	toposim -topo tree,depth=4,branch=10,rxleaf=10 -shards 4    # sharded engine, 4 workers
//	toposim -topo tree,depth=3,branch=8,rxleaf=2 -aggregate     # in-network report aggregation
//	toposim -topo tree,depth=3,branch=4,rxleaf=2 -federate -churn 4   # churn under per-domain leaf controllers
//	toposim -topo list                           # list registered generators and keys
//	toposim -topology B -sessions 4 -algo rlm    # RLM baseline instead
//	toposim -topology A -json BENCH_simA.json    # machine-readable result
//	toposim -topology B -obs OBS_sim.json        # observability export (.json or .csv)
//	toposim -topology B -flightrec               # dump the flight recorder after the run
//	toposim -topology B -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"toposense/internal/controller"
	"toposense/internal/core"
	"toposense/internal/experiments"
	"toposense/internal/faults"
	"toposense/internal/metrics"
	"toposense/internal/netsim"
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

func main() {
	topo := flag.String("topology", "A", "A, B or tiered")
	topoSpec := flag.String("topo", "", "topology generator spec name[,key=val,...] resolved against the registry ("+strings.Join(topology.Names(), ", ")+"); overrides -topology; \"list\" prints every generator and its keys")
	receivers := flag.Int("receivers", 2, "topology A: receivers per set; tiered: receivers per leaf")
	sessions := flag.Int("sessions", 4, "topology B: number of competing sessions")
	traffic := flag.String("traffic", "cbr", "cbr, vbr3 or vbr6")
	duration := flag.Float64("duration", 1200, "simulated seconds")
	staleness := flag.Float64("staleness", 0, "topology information staleness in seconds")
	failAt := flag.Float64("failat", 0, "cut the topology's bottleneck link at this simulated second (0 = no failure)")
	outage := flag.Float64("outage", 60, "with -failat: seconds until the link is repaired")
	churnPeriod := flag.Float64("churn", 0, "Poisson membership churn: every receiver alternates joined/departed with this mean period in simulated seconds (0 = no churn)")
	seed := flag.Int64("seed", 1, "simulation seed")
	shards := flag.Int("shards", 0, "engine workers: 0 = single-threaded engine, N >= 1 = sharded engine with N workers")
	aggregate := flag.Bool("aggregate", false, "install the in-network feedback aggregation layer (toposense only)")
	federate := flag.Bool("federate", false, "run the hierarchical control plane: per-domain leaf controllers under a federation parent (toposense only; needs a domain-labelled topology)")
	algo := flag.String("algo", "toposense", "toposense or rlm")
	probe := flag.Bool("probe", false, "use mtrace-style probe-based topology discovery")
	billing := flag.Bool("billing", false, "print the controller's billing ledger (toposense only)")
	tsvDir := flag.String("tsv", "", "directory to write per-receiver level/loss time series as TSV")
	explain := flag.Bool("explain", false, "print the algorithm's per-node decisions for the final interval")
	jsonPath := flag.String("json", "", "write the result + run metadata to this file (e.g. BENCH_sim.json)")
	obsPath := flag.String("obs", "", "enable observability and write its export to this file (.json or .csv)")
	flightrec := flag.Bool("flightrec", false, "enable observability and dump the flight recorder to stderr after the run")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile after the run to this file")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var tr experiments.Traffic
	switch strings.ToLower(*traffic) {
	case "cbr":
		tr = experiments.CBR
	case "vbr3":
		tr = experiments.VBR3
	case "vbr6":
		tr = experiments.VBR6
	default:
		fmt.Fprintf(os.Stderr, "unknown traffic %q\n", *traffic)
		os.Exit(2)
	}
	if *topoSpec == "list" {
		fmt.Print(topology.Usage())
		return
	}
	var topoCfg topology.Config
	topoName := strings.ToUpper(*topo)
	if *topoSpec != "" {
		var err error
		if _, topoCfg, err = topology.Parse(*topoSpec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		topoName = *topoSpec
	} else {
		switch topoName {
		case "A", "B", "TIERED":
		default:
			fmt.Fprintf(os.Stderr, "unknown topology %q\n", *topo)
			os.Exit(2)
		}
	}
	algoName := strings.ToLower(*algo)
	switch algoName {
	case "toposense", "rlm":
	default:
		fmt.Fprintf(os.Stderr, "unknown algo %q\n", *algo)
		os.Exit(2)
	}
	if *failAt > 0 && *outage <= 0 {
		fmt.Fprintln(os.Stderr, "-outage must be positive when -failat is set")
		os.Exit(2)
	}
	if err := experiments.ValidateEngineFlags(*shards, *failAt, *aggregate, *federate, *churnPeriod); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *aggregate && algoName != "toposense" {
		fmt.Fprintln(os.Stderr, "-aggregate: the aggregation layer serves the toposense controller; it has no meaning under -algo rlm")
		os.Exit(2)
	}
	if *federate && algoName != "toposense" {
		fmt.Fprintln(os.Stderr, "-federate: the hierarchical control plane federates toposense controllers; it has no meaning under -algo rlm")
		os.Exit(2)
	}
	if *federate && (*billing || *explain) {
		fmt.Fprintln(os.Stderr, "-federate: -billing and -explain read the single flat controller; drop them to run federated")
		os.Exit(2)
	}
	obsExt := strings.ToLower(filepath.Ext(*obsPath))
	if *obsPath != "" && obsExt != ".json" && obsExt != ".csv" {
		fmt.Fprintf(os.Stderr, "-obs %q: extension must be .json or .csv\n", *obsPath)
		os.Exit(2)
	}

	cfg := experiments.WorldConfig{
		Seed:           *seed,
		Traffic:        tr,
		Staleness:      sim.FromSeconds(*staleness),
		ProbeDiscovery: *probe,
		Aggregate:      *aggregate,
	}
	switch {
	case algoName == "rlm":
		cfg.Plane = experiments.PlaneRLM
		*billing, *explain = false, false // both read the controller RLM does not have
	case *federate:
		cfg.Plane = experiments.PlaneFederated
	}
	dur := sim.FromSeconds(*duration)

	// The flight recorder lives inside the run's obs bundle; capture it from
	// the body so -flightrec can dump it after Execute returns.
	var runObs *obs.Obs
	runName := fmt.Sprintf("toposim/topo=%s/%s/%s", topoName, tr.Name, algoName)
	if *federate {
		runName += "/fed"
	}
	spec := experiments.NewSpec("toposim", runName,
		*seed, dur,
		func(m *experiments.Meter) (any, error) {
			e := experiments.NewRunEngine(*seed, *shards)
			var b *topology.Build
			if topoCfg != nil {
				var err error
				if b, err = topology.Generate(e, topoCfg); err != nil {
					return nil, err
				}
			} else {
				switch topoName {
				case "A":
					b = topology.MustGenerate(e, &topology.AConfig{ReceiversPerSet: *receivers})
				case "B":
					b = topology.MustGenerate(e, &topology.BConfig{Sessions: *sessions})
				case "TIERED":
					b = topology.MustGenerate(e, &topology.TieredConfig{
						Seed:             *seed,
						FanOut:           []int{2, 3},
						Bandwidth:        []float64{10e6, 600e3},
						ReceiversPerLeaf: *receivers,
					})
				}
			}
			var inj *faults.Injector
			if *failAt > 0 {
				if len(b.Bottlenecks) == 0 {
					return nil, fmt.Errorf("topology %s exposes no bottleneck link to fail", topoName)
				}
				inj = faults.New(b.Net)
				links := []*netsim.Link{b.Bottlenecks[0]}
				if rev := b.Bottlenecks[0].Reverse(); rev != nil {
					links = append(links, rev)
				}
				inj.Outage(sim.FromSeconds(*failAt), sim.FromSeconds(*outage), links...)
			}

			w, err := experiments.AssembleWorld(e, b, cfg)
			if err != nil {
				return nil, err
			}
			m.ObserveWorld(w)
			runObs = m.Obs()
			if *billing {
				w.Controller.EnableBilling()
			}
			if *explain {
				w.Controller.Algorithm().EnableExplain()
			}
			var sampler *trace.Sampler
			if *tsvDir != "" {
				// Sampled through the slot's live incarnation, so a churned
				// series reads 0 while departed and follows each rejoin.
				sampler = trace.NewSampler(e, 500*sim.Millisecond)
				for _, sl := range w.Slots() {
					s, i := sl.Session, sl.Index
					name := fmt.Sprintf("s%d-%s", s, b.Receivers[s][i].Name)
					sampler.Probe(name+".level", func() float64 { return float64(w.Level(s, i)) })
					if cfg.Plane != experiments.PlaneRLM {
						sampler.Probe(name+".loss", func() float64 {
							if rx, ok := w.Live(s, i).(*receiver.Receiver); ok {
								return rx.LastLoss
							}
							return 0
						})
					}
				}
				sampler.Start()
			}
			// Membership churn: every receiver alternates between joined and
			// departed; a rejoin is a fresh incarnation feeding the same
			// trace, so deviations reflect the churn.
			if *churnPeriod > 0 {
				w.ChurnSlots(sim.FromSeconds(*churnPeriod), w.Slots())
			}
			w.Run(dur)

			if w.Controller != nil {
				fmt.Printf("controller: %d steps, %d suggestions sent, %d reports received\n",
					w.Controller.StepsRun, w.Controller.SuggestionsSent, w.Controller.ReportsRecv)
			}
			if w.Parent != nil {
				fmt.Printf("federation: %d domains, %d exports received, %d reconcile passes, %d budget changes\n",
					len(w.Leaves), w.Parent.ExportsRecv, w.Parent.Reconciles, w.Parent.BudgetChanges)
				for k, l := range w.Leaves {
					ctrl := w.Controllers[k]
					changes, last := w.Parent.ChangesFor(l.Domain)
					fmt.Printf("  domain %d: ceiling %d, %d exports sent, %d budget entries (last change %.0f s), %d suggestions capped, %d steps\n",
						l.Domain, w.Parent.Ceiling(l.Domain), l.ExportsSent, changes, last.Seconds(), ctrl.SuggestionsCapped, ctrl.StepsRun)
				}
			}
			if *churnPeriod > 0 {
				fmt.Printf("churn: %d joins, %d leaves", w.Churn.Joins, w.Churn.Leaves)
				if len(w.Controllers) > 0 {
					var deregs int64
					registered := 0
					for _, c := range w.Controllers {
						deregs += c.DeregistersRecv
						registered += len(c.RegisteredReceivers())
					}
					fmt.Printf(", %d deregisters consumed, %d receivers registered at end", deregs, registered)
				}
				fmt.Println()
			}
			if *aggregate {
				fmt.Printf("aggregation: %d reports absorbed in-network, %d merges, %d flushes, %d sub-batches down\n",
					w.Aggregator.Absorbed, w.Aggregator.Merged, w.Aggregator.Flushes, w.Aggregator.Batches)
				fmt.Printf("controller fan-in: %d control msgs (%d modeled bytes), %d aggregates, %d batches out\n",
					w.Controller.CtlMsgsRecv, w.Controller.CtlBytesRecv, w.Controller.AggregatesRecv, w.Controller.BatchesSent)
			}
			if *probe && w.Tool != nil {
				fmt.Printf("discovery: %d probe packets over %d discoveries\n", w.Tool.ProbePackets, w.Tool.Discoveries)
			}
			if *billing {
				fmt.Println("\nbilling ledger:")
				fmt.Print(controller.FormatBillingReport(w.Controller.BillingReport()))
			}
			if *explain {
				fmt.Println("\nfinal interval decisions:")
				fmt.Print(core.FormatDecisions(w.Controller.Algorithm().LastDecisions()))
				if *aggregate {
					fmt.Println("\nfinal interval subtree summaries:")
					fmt.Print(core.FormatSubtrees(w.Controller.Algorithm().Subtrees()))
				}
			}
			if inj != nil {
				fmt.Printf("faults: bottleneck down %.0f-%.0f s (%d link failures, %d repairs, %d packets unroutable)\n",
					*failAt, *failAt+*outage, inj.Failures, inj.Repairs, b.Net.Unroutable)
			}

			if sampler != nil {
				if err := writeTSVs(*tsvDir, sampler); err != nil {
					return nil, fmt.Errorf("tsv: %w", err)
				}
				fmt.Printf("wrote %d series to %s\n", len(sampler.Names()), *tsvDir)
			}

			traces, optima := w.AllTraces()
			res := simResult{MeanDev: metrics.MeanRelativeDeviation(traces, optima, 0, dur)}
			for k, sl := range w.Slots() {
				s, i := sl.Session, sl.Index
				res.Rows = append(res.Rows, receiverRow{
					Receiver:  fmt.Sprintf("s%d/%s", s, b.Receivers[s][i].Name),
					Level:     w.Level(s, i),
					Optimal:   optima[k],
					Deviation: traces[k].RelativeDeviation(optima[k], 0, dur),
					Changes:   traces[k].Changes(0, dur),
				})
			}
			return res, nil
		})
	if *obsPath != "" || *flightrec {
		spec.Obs = &obs.Options{}
	}

	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	result := spec.Execute(0)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	// Profiles cover the simulation itself, not report formatting; stop
	// here so the later os.Exit paths cannot lose them.
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *flightrec && runObs != nil {
		runObs.Rec.WriteLog(os.Stderr)
	}
	if result.Failed() {
		fmt.Fprintf(os.Stderr, "run failed: %s\n", result.Err)
		os.Exit(1)
	}
	if *obsPath != "" {
		if err := writeObs(*obsPath, obsExt, result.Obs); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *obsPath, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote observability export to %s\n", *obsPath)
	}
	res := result.Rows.(simResult)

	t := &experiments.Table{
		Title:  fmt.Sprintf("Topology %s, %s, %s, %.0f s", topoName, tr.Name, algoName, *duration),
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
	fmt.Print(t)
	fmt.Printf("mean relative deviation: %.3f\n", res.MeanDev)
	fmt.Printf("run: %.2fs wall, %d events (%.0f events/s), %d packets forwarded\n",
		result.WallSeconds, result.Events, result.EventsPerSecond, result.Packets)

	if *jsonPath != "" {
		export := experiments.Export{
			Tool:        "toposim",
			GeneratedAt: start.UTC().Format(time.RFC3339),
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			Parallelism: 1,
			Seed:        *seed,
			WallSeconds: time.Since(start).Seconds(),
			Results:     []experiments.Result{result},
		}
		export.FillAggregates(memAfter.Mallocs - memBefore.Mallocs)
		if err := experiments.WriteJSONFile(*jsonPath, export); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote result to %s\n", *jsonPath)
	}
}

// writeObs writes the observability export as JSON or CSV, by extension.
func writeObs(path, ext string, d *obs.Dump) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if ext == ".csv" {
		err = d.WriteCSV(f)
	} else {
		err = d.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeTSVs dumps every sampled series as <name>.tsv under dir.
func writeTSVs(dir string, sampler *trace.Sampler) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range sampler.Names() {
		f, err := os.Create(filepath.Join(dir, name+".tsv"))
		if err != nil {
			return err
		}
		if err := sampler.Series(name).WriteTSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
