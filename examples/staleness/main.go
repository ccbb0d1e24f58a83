// Stale topology information (the paper's Figure 10 scenario): the
// controller acts on a picture of the multicast tree that is several
// seconds old — the realistic regime for mtrace-class discovery tools.
// This example sweeps the staleness knob and prints how tracking quality
// degrades, and where it stops mattering.
//
//	go run ./examples/staleness
package main

import (
	"fmt"
	"os"

	"toposense/internal/experiments"
	"toposense/internal/metrics"
	"toposense/internal/sim"
)

func main() {
	fmt.Println("Topology A, VBR(P=3), 600 s runs; sweeping topology staleness")
	fmt.Printf("\n%-14s  %-20s\n", "staleness (s)", "mean rel. deviation")
	for _, stale := range []float64{0, 2, 4, 8, 12, 18} {
		w, err := experiments.Scenario{
			WorldConfig: experiments.WorldConfig{Seed: 11, Traffic: experiments.VBR3, Staleness: sim.FromSeconds(stale)},
			Topo:        "a,rxset=2",
			Duration:    600,
		}.Assemble(&experiments.Meter{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w.Run(600 * sim.Second)
		traces, optima := w.AllTraces()
		dev := metrics.MeanRelativeDeviation(traces, optima, 0, 600*sim.Second)
		fmt.Printf("%-14.0f  %.3f\n", stale, dev)
	}
	fmt.Println("\nthe max source-to-receiver latency here is 600 ms; information a few")
	fmt.Println("seconds old still steers well — the paper's central robustness claim")
}
