// Heterogeneous receivers (the paper's Topology A): one video session, two
// groups of receivers behind very different access links — a 100 Kbps "last
// mile" and a 500 Kbps one. TopoSense must give each group its own optimal
// subscription without letting the slow group drag the fast group down:
// the motivating scenario from the paper's introduction (the Ethernet user
// vs the 56K modem user).
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"os"

	"toposense/internal/experiments"
	"toposense/internal/sim"
)

func main() {
	world, err := experiments.Scenario{
		WorldConfig: experiments.WorldConfig{Seed: 7, Traffic: experiments.CBR},
		// Set 1 at 100 Kbps (~2 layers), set 2 at 500 Kbps (~4 layers).
		Topo:     "a,rxset=3,bw1=100e3,bw2=500e3",
		Duration: 300,
	}.Assemble(&experiments.Meter{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println("one session, 6 receivers: 3 behind 100 Kbps, 3 behind 500 Kbps")
	fmt.Println("running 300 simulated seconds...")
	world.Run(300 * sim.Second)

	fmt.Printf("\n%-12s  %-11s  %-7s  %s\n", "receiver", "final level", "optimal", "deviation")
	traces, optima := world.AllTraces()
	i := 0
	for s := range world.Receivers {
		for _, rx := range world.Receivers[s] {
			dev := traces[i].RelativeDeviation(optima[i], 0, 300*sim.Second)
			fmt.Printf("%-12s  %-11d  %-7d  %.3f\n", rx.Node().Name, rx.Level(), optima[i], dev)
			i++
		}
	}

	fast, slow := world.Receivers[0][3].Level(), world.Receivers[0][0].Level()
	fmt.Printf("\nintra-session fairness: slow set at %d layers, fast set at %d layers\n", slow, fast)
	if fast > slow {
		fmt.Println("the fast receivers were NOT dragged down by the slow ones — topology awareness at work")
	}
}
