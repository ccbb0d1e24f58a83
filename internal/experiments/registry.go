package experiments

import (
	"fmt"
	"strings"

	"toposense/internal/sim"
)

// SweepConfig is what a caller (cmd/topobench) knows when it asks the
// registry for work: the seed and whether to scale the sweep down.
type SweepConfig struct {
	Seed  int64
	Quick bool
	// Topo is a topology generator selection for the experiments that take
	// one (fig_scale): a family name for its whole ladder, or a full
	// "name,key=val" spec for a single point. Empty = the default sweep.
	Topo string
	// Shards is the engine worker count for the sweeps that honour it
	// (figures 6 and 7, fig_scale): <= 1 runs the single-threaded oracle,
	// N > 1 the conservative sharded engine. Simulation results are
	// byte-identical either way. fig_scale with Shards > 1 additionally
	// runs each point's single-threaded twin for the speedup column.
	Shards int
	// Aggregate makes fig_scale run an in-network-aggregation twin of every
	// ladder point next to the flat one, so the table carries control fan-in
	// and control bytes both ways plus the reduction factor.
	Aggregate bool
	// Federate makes fig_scale run a hierarchical-control-plane twin of
	// every ladder point (scoped leaf controllers under a federation
	// parent). fig_federation runs federated regardless.
	Federate bool
	// Churn is the mean join/leave period in seconds for the sweeps that
	// take one (fig_churn): > 0 pins the study to that single period
	// instead of its default sweep around the decision interval.
	Churn float64
}

// Experiment is one registry entry: a named sweep that can enumerate its
// Specs for a SweepConfig and render its executed Results back into the
// report text the tool prints.
type Experiment struct {
	// Name is the -fig key, e.g. "6" or "baseline".
	Name string
	// Title is a one-line description for help output.
	Title string
	// Specs enumerates the sweep, applying Quick scaling.
	Specs func(cfg SweepConfig) []Spec
	// Render turns the sweep's Results (in Specs order) into report text.
	Render func(results []Result) (string, error)
}

// QuickDuration is the scaled-down run length the -quick sweeps use.
const QuickDuration = 240 * sim.Second

// studyDuration is the full run length of the secondary studies (failure,
// federation, churn, convergence, domains, queues, last-mile, variance,
// extensions); the paper's own figures run PaperDuration.
const studyDuration = 600 * sim.Second

// scaled returns full, or quick when cfg asks for the scaled-down sweep.
// Every experiment reads each parameter that differs between its two forms
// through it, so the quick value sits beside the full one.
func scaled[T any](cfg SweepConfig, full, quick T) T {
	if cfg.Quick {
		return quick
	}
	return full
}

// table renders results as a single table via a typed gather.
func table[T any](results []Result, render func([]T) *Table) (string, error) {
	rows, err := GatherRows[T](results)
	if err != nil {
		return "", err
	}
	return render(rows).String() + "\n", nil
}

// single returns the rows of a one-run sweep whose body returns one typed
// result instead of a row slice (figure 9, fig_failure).
func single[T any](results []Result) (T, error) {
	var zero T
	if len(results) != 1 {
		return zero, fmt.Errorf("want 1 result with %T rows, got %d", zero, len(results))
	}
	r := results[0]
	if r.Failed() {
		return zero, fmt.Errorf("run %s failed: %s", r.Name, r.Err)
	}
	rows, ok := r.Rows.(T)
	if !ok {
		return zero, fmt.Errorf("run %s: rows are %T, want %T", r.Name, r.Rows, zero)
	}
	return rows, nil
}

// Registry returns every experiment in report order. The slice is freshly
// built per call, so callers may not mutate shared state through it.
func Registry() []Experiment {
	return []Experiment{
		{
			Name:  "6",
			Title: "Figure 6: stability in Topology A",
			Specs: fig6Specs,
			Render: func(results []Result) (string, error) {
				return table(results, func(rows []StabilityRow) *Table {
					return StabilityTable(
						"Figure 6: stability in Topology A (busiest receiver over the full run)",
						"receivers", rows)
				})
			},
		},
		{
			Name:  "7",
			Title: "Figure 7: stability in Topology B",
			Specs: fig7Specs,
			Render: func(results []Result) (string, error) {
				return table(results, func(rows []StabilityRow) *Table {
					return StabilityTable(
						"Figure 7: stability in Topology B (busiest session over the full run)",
						"sessions", rows)
				})
			},
		},
		{
			Name:  "8",
			Title: "Figure 8: inter-session fairness in Topology B",
			Specs: fig8Specs,
			Render: func(results []Result) (string, error) {
				return table(results, FairnessTable)
			},
		},
		{
			Name:  "9",
			Title: "Figure 9: layer subscription and loss history",
			Specs: fig9Specs,
			Render: func(results []Result) (string, error) {
				res, err := single[*Fig9Result](results)
				if err != nil {
					return "", err
				}
				return res.WindowTable().String() + "\n" + res.Summary() + "\n", nil
			},
		},
		{
			Name:  "10",
			Title: "Figure 10: impact of stale information",
			Specs: fig10Specs,
			Render: func(results []Result) (string, error) {
				return table(results, StaleTable)
			},
		},
		{
			Name:  "fig_failure",
			Title: "Bottleneck link failure and repair in Topology B",
			Specs: failureSpecs,
			Render: func(results []Result) (string, error) {
				res, err := single[*FailureResult](results)
				if err != nil {
					return "", err
				}
				return res.Table().String() + "\n" + res.Summary() + "\n", nil
			},
		},
		{
			Name:   "fig_scale",
			Title:  "Scaling curve: receivers vs events/s, memory, pass latency",
			Specs:  scaleSpecs,
			Render: ScaleTable,
		},
		{
			Name:  "fig_federation",
			Title: "Hierarchical control plane on a tiered topology: flat vs federated",
			Specs: federationSpecs,
			Render: func(results []Result) (string, error) {
				return table(results, FederationTable)
			},
		},
		{
			Name:  "fig_churn",
			Title: "Membership churn: Poisson join/leave vs the decision interval",
			Specs: churnStudySpecs,
			Render: func(results []Result) (string, error) {
				return table(results, ChurnStudyTable)
			},
		},
		{
			Name:  "baseline",
			Title: "TopoSense vs receiver-driven (RLM-style) baseline",
			Specs: baselineSpecs,
			Render: func(results []Result) (string, error) {
				return table(results, BaselineTable)
			},
		},
		{
			Name:  "ablation",
			Title: "Each mechanism disabled in isolation",
			Specs: ablationSpecs,
			Render: func(results []Result) (string, error) {
				return table(results, AblationTable)
			},
		},
		{
			Name:  "convergence",
			Title: "Heterogeneous convergence and intra-session fairness",
			Specs: convergenceSpecs,
			Render: func(results []Result) (string, error) {
				var b strings.Builder
				for _, tr := range convergenceTraffics {
					var section []Result
					for _, r := range results {
						if r.Name == "convergence/"+tr.Name {
							section = append(section, r)
						}
					}
					rows, err := GatherRows[ConvergenceRow](section)
					if err != nil {
						return "", err
					}
					b.WriteString(tr.Name + ":\n")
					b.WriteString(ConvergenceTable(rows).String())
					b.WriteString("\n")
				}
				return b.String(), nil
			},
		},
		{
			Name:  "domains",
			Title: "Per-domain controller agents vs one global agent",
			Specs: domainsSpecs,
			Render: func(results []Result) (string, error) {
				rows, err := GatherRows[DomainRow](results)
				if err != nil {
					return "", err
				}
				return DomainsTable(ReduceDomains(rows)).String() + "\n", nil
			},
		},
		{
			Name:  "queues",
			Title: "Drop-tail vs router-based priority dropping",
			Specs: queuePolicySpecs,
			Render: func(results []Result) (string, error) {
				return table(results, QueueTable)
			},
		},
		{
			Name:  "lastmile",
			Title: "The same bottleneck at each tier of a tiered tree",
			Specs: lastMileSpecs,
			Render: func(results []Result) (string, error) {
				return table(results, LastMileTable)
			},
		},
		{
			Name:  "variance",
			Title: "Across-seed variance of the Figure 8 headline",
			Specs: varianceSpecs,
			Render: func(results []Result) (string, error) {
				rows, err := GatherRows[VarianceSample](results)
				if err != nil {
					return "", err
				}
				return VarianceTable(ReduceVariance(rows)).String() + "\n", nil
			},
		},
		{
			Name:  "extensions",
			Title: "Section V sweeps: granularity, leave latency, interval",
			Specs: extensionSpecs,
			Render: func(results []Result) (string, error) {
				sections := []struct{ prefix, title, param string }{
					{"extensions/granularity/", "Extension: layer granularity (Section V)", "scheme"},
					{"extensions/leave/", "Extension: group-leave latency (Section V, VBR)", "leave latency"},
					{"extensions/interval/", "Extension: decision interval (Section V)", "interval"},
				}
				var b strings.Builder
				for _, sec := range sections {
					var section []Result
					for _, r := range results {
						if strings.HasPrefix(r.Name, sec.prefix) {
							section = append(section, r)
						}
					}
					perSeed, err := GatherRows[ExtensionRow](section)
					if err != nil {
						return "", err
					}
					b.WriteString(ExtensionTable(sec.title, sec.param, reduceExtension(perSeed)).String())
					b.WriteString("\n")
				}
				return b.String(), nil
			},
		},
	}
}

// Lookup finds a registry entry by name.
func Lookup(name string) (Experiment, bool) {
	for _, ex := range Registry() {
		if ex.Name == name {
			return ex, true
		}
	}
	return Experiment{}, false
}

// Names lists the registry's experiment names in report order.
func Names() []string {
	var names []string
	for _, ex := range Registry() {
		names = append(names, ex.Name)
	}
	return names
}
