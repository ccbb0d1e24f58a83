// Competing sessions (the paper's Topology B): several independent video
// sessions squeeze through one shared backbone link. TopoSense estimates
// the shared link's capacity from correlated losses and splits it between
// the sessions; an uncoordinated receiver-driven baseline (RLM-style) is
// run on the identical scenario for contrast.
//
//	go run ./examples/competing
package main

import (
	"fmt"

	"toposense/internal/experiments"
	"toposense/internal/metrics"
	"toposense/internal/sim"
	"toposense/internal/topology"
)

const (
	sessions = 4
	duration = 600 * sim.Second
)

func main() {
	fmt.Printf("%d sessions share a %d Kbps link; each can ideally take 4 layers (480 Kbps)\n\n",
		sessions, sessions*500)

	// TopoSense.
	e1 := sim.NewEngine(3)
	w1 := experiments.NewWorld(e1,
		topology.MustGenerate(e1, &topology.BConfig{Sessions: sessions}),
		experiments.WorldConfig{Seed: 3, Traffic: experiments.VBR3})
	w1.Run(duration)

	// RLM baseline on the identical topology and traffic.
	e2 := sim.NewEngine(3)
	w2 := experiments.NewWorld(e2,
		topology.MustGenerate(e2, &topology.BConfig{Sessions: sessions}),
		experiments.WorldConfig{Seed: 3, Traffic: experiments.VBR3, Plane: experiments.PlaneRLM})
	w2.Run(duration)

	fmt.Printf("%-9s  %-10s  %-10s\n", "session", "TopoSense", "RLM")
	for s := 0; s < sessions; s++ {
		fmt.Printf("%-9d  %-10d  %-10d\n", s, w1.Level(s, 0), w2.Level(s, 0))
	}

	t1, o1 := w1.AllTraces()
	t2, o2 := w2.AllTraces()
	d1 := metrics.MeanRelativeDeviation(t1, o1, 0, duration)
	d2 := metrics.MeanRelativeDeviation(t2, o2, 0, duration)
	fmt.Printf("\nmean relative deviation from the fair optimum (lower is better):\n")
	fmt.Printf("  TopoSense: %.3f\n  RLM:       %.3f\n", d1, d2)
	fmt.Println("\nwith bursty (VBR) traffic, uncoordinated join-experiments interfere across")
	fmt.Println("sessions; the topology-aware controller shares the estimated capacity instead")
}
