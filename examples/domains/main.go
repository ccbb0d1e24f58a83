// Multi-domain control (the paper's Figure 3): two administrative domains,
// each running its own controller agent that only sees its own subtree and
// its own receivers — neither knows the other exists. The slow domain's
// congestion is handled locally and never disturbs the fast domain: the
// subtree-independence idea the TopoSense architecture is built on.
//
//	go run ./examples/domains
package main

import (
	"fmt"
	"os"

	"toposense/internal/experiments"
)

func main() {
	fmt.Println("two domains behind one backbone: domain 1 at 100 Kbps (optimal 2 layers),")
	fmt.Println("domain 2 at 500 Kbps (optimal 4 layers); one session spans both")
	fmt.Println()
	fmt.Println("comparing one global controller against two independent per-domain agents")
	fmt.Println("(600 simulated seconds x 2 architectures x 3 seeds)...")
	fmt.Println()

	ex, _ := experiments.Lookup("domains")
	results := experiments.ExecuteAll(ex.Specs(experiments.SweepConfig{Seed: 21}))
	rows, err := experiments.GatherRows[experiments.DomainRow](results)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(experiments.DomainsTable(experiments.ReduceDomains(rows)))

	fmt.Println()
	fmt.Println("both architectures steer every receiver to its domain's optimum;")
	fmt.Println("local agents need no global view — the paper's scalability argument")
}
