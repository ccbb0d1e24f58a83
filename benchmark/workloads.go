package main

import (
	"fmt"

	"toposense/internal/experiments"
)

// workload is one full-stack scenario the benchmark runs. Simulated
// durations are fixed: they are part of the workload's identity, so the
// same (workload, seed) does the same simulated work on every commit.
type workload struct {
	Name      string
	Topo      string // topology generator spec, as cmd/toposim -topo takes it
	Traffic   experiments.Traffic
	Aggregate bool    // WorldConfig.Aggregate, cmd/toposim -aggregate
	Churn     float64 // mean on = mean off in simulated seconds, cmd/toposim -churn; 0 = none
	SimS      float64 // simulated seconds of the measured phase
	Why       string
}

// workloads are the four benchmark scenarios. Each is there because it
// loads the layers differently; see README.md for the measured shares.
var workloads = []workload{
	{
		Name: "paperB16-vbr", Topo: "b,sessions=16", Traffic: experiments.VBR3, SimS: 800,
		Why: "paper Fig. 7/8 point: 34 nodes, 16 sessions sharing one link, VBR source and per-event engine cost dominate",
	},
	{
		Name: "tree1k-agg", Topo: "tree,depth=3,branch=8,rxleaf=2", Traffic: experiments.CBR, Aggregate: true, SimS: 40,
		Why: "1024 receivers converging under in-network aggregation: data plane (event queue, links, replication) dominates",
	},
	{
		Name: "tree10k-flat", Topo: "tree,depth=4,branch=10,rxleaf=1", Traffic: experiments.CBR, SimS: 10,
		Why: "10000 receivers on the flat control plane: unicast report path, controller pass and discovery dominate",
	},
	{
		Name: "tree1k-churn", Topo: "tree,depth=3,branch=8,rxleaf=2", Traffic: experiments.CBR, Aggregate: true, Churn: 8, SimS: 100,
		Why: "tree1k-agg plus Poisson join/leave on every receiver: forwarding-state writes beside reads",
	},
}

// smoke is the small scenario the tests drive through the real
// child-process path; it is not part of the declared benchmark.
var smoke = workload{
	Name: "smoke", Topo: "tree,depth=2,branch=3,rxleaf=2", Traffic: experiments.CBR, Aggregate: true, Churn: 8, SimS: 5,
	Why: "test-only scenario",
}

func findWorkload(name string) (workload, error) {
	if name == smoke.Name {
		return smoke, nil
	}
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
