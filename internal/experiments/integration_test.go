package experiments

import (
	"fmt"
	"testing"

	"toposense/internal/core"
	"toposense/internal/metrics"
	"toposense/internal/sim"
)

// These are end-to-end scenario tests across the full stack: engine,
// network, multicast, sources, receivers, discovery, controller.

func TestIntegrationDeterminism(t *testing.T) {
	run := func() []int {
		w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 99, Traffic: VBR3}, Topo: "b,sessions=3", Duration: 90})
		w.Run(90 * sim.Second)
		var levels []int
		for s := range w.Receivers {
			levels = append(levels, w.Receivers[s][0].Level())
			for _, tr := range w.Traces[s] {
				levels = append(levels, tr.Changes(0, 90*sim.Second))
			}
		}
		levels = append(levels, int(w.Engine.Fired()%1_000_000))
		return levels
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestIntegrationSeedsDiffer(t *testing.T) {
	// Different seeds must actually change the run (the RNG is wired
	// through): compare event counts.
	w1 := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 1, Traffic: VBR3}, Topo: "b,sessions=2", Duration: 60})
	w1.Run(60 * sim.Second)
	w2 := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 2, Traffic: VBR3}, Topo: "b,sessions=2", Duration: 60})
	w2.Run(60 * sim.Second)
	if w1.Engine.Fired() == w2.Engine.Fired() {
		t.Skip("identical event counts are possible but astronomically unlikely; rerun with other seeds if this ever fails twice")
	}
}

func TestIntegrationLevelsAlwaysInRange(t *testing.T) {
	w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 5, Traffic: VBR6}, Topo: "b,sessions=4", Duration: 300})
	w.Run(300 * sim.Second)
	for s := range w.Traces {
		for _, tr := range w.Traces[s] {
			for _, pt := range tr.Points() {
				if pt.Level < 0 || pt.Level > 6 {
					t.Fatalf("session %d level %d out of range at %v", s, pt.Level, pt.At)
				}
			}
		}
	}
}

func TestIntegrationReceiverStopMidRun(t *testing.T) {
	// One of two receivers in the fast set leaves mid-run; the session
	// keeps serving the others and nothing wedges.
	w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 3, Traffic: CBR}, Topo: "a,rxset=2", Duration: 180})
	w.Start()
	w.Engine.RunUntil(60 * sim.Second)
	leaver := w.Receivers[0][2] // first receiver of set 2
	leaver.Stop()
	w.Engine.RunUntil(180 * sim.Second)
	if leaver.Level() != 0 {
		t.Errorf("stopped receiver at level %d", leaver.Level())
	}
	stayer := w.Receivers[0][3]
	if stayer.Level() < 3 {
		t.Errorf("remaining fast receiver dragged to %d", stayer.Level())
	}
	slow := w.Receivers[0][0]
	if slow.Level() < 1 || slow.Level() > 3 {
		t.Errorf("slow receiver at %d", slow.Level())
	}
}

func TestIntegrationLateJoiner(t *testing.T) {
	// A world built with a receiver that only starts at t=120s: it must
	// register, climb, and converge like the others.
	w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 8, Traffic: CBR}, Topo: "b,sessions=2", Duration: 420})
	// Start everything except session 1's receiver.
	for _, s := range w.Sources {
		s.Start()
	}
	w.Controller.Start()
	w.Receivers[0][0].Start()
	w.Engine.RunUntil(120 * sim.Second)
	late := w.Receivers[1][0]
	late.Start()
	w.Engine.RunUntil(420 * sim.Second)
	if got := late.Level(); got < 3 {
		t.Errorf("late joiner stuck at %d", got)
	}
	if got := w.Receivers[0][0].Level(); got < 3 {
		t.Errorf("incumbent pushed down to %d", got)
	}
}

func TestIntegrationTieredTopologyConverges(t *testing.T) {
	w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 13, Traffic: CBR},
		Topo: "tiered,seed=13,fanout=2:2,bw=20e6:500e3,rxleaf=2", Duration: 300})
	w.Run(300 * sim.Second)
	traces, optima := w.AllTraces()
	for i, tr := range traces {
		lvl := tr.LevelAt(300 * sim.Second)
		if diff := lvl - optima[i]; diff < -2 || diff > 2 {
			t.Errorf("receiver %d at %d, optimal %d", i, lvl, optima[i])
		}
	}
}

func TestIntegrationExtremeStalenessStillSafe(t *testing.T) {
	// Even with absurdly stale topology (60 s) nothing crashes and
	// receivers keep at least the base layer.
	w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 4, Traffic: VBR3, Staleness: 60 * sim.Second}, Topo: "a,rxset=2", Duration: 240})
	w.Run(240 * sim.Second)
	for _, rxs := range w.Receivers {
		for _, rx := range rxs {
			if rx.Level() < 1 {
				t.Errorf("receiver %v starved at level %d", rx.Node(), rx.Level())
			}
		}
	}
}

func TestIntegrationControlTrafficIsLinear(t *testing.T) {
	// The paper: "the number of information packets exchanged in every
	// interval is linear with respect to the number of receivers and
	// sessions." Doubling receivers must not quadruple suggestions.
	count := func(per int) int64 {
		w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 2, Traffic: CBR}, Topo: fmt.Sprintf("a,rxset=%d", per), Duration: 120})
		w.Run(120 * sim.Second)
		return w.Controller.SuggestionsSent
	}
	c2, c4 := count(2), count(4)
	if c4 > 3*c2 {
		t.Errorf("suggestions grew superlinearly: %d -> %d", c2, c4)
	}
}

func TestIntegrationAlgorithmOverrides(t *testing.T) {
	// Custom algorithm config flows through the world builder.
	alg := core.Config{
		PThreshold: 0.2,
		Interval:   8 * sim.Second,
	}
	w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 1, Traffic: CBR, Alg: alg}, Topo: "b,sessions=2", Duration: 65})
	w.Run(65 * sim.Second)
	if got := w.Controller.Algorithm().Config().Interval; got != 8*sim.Second {
		t.Errorf("interval override lost: %v", got)
	}
	// 65 s / 8 s interval = 8 steps.
	if w.Controller.StepsRun != 8 {
		t.Errorf("StepsRun = %d, want 8", w.Controller.StepsRun)
	}
}

func TestIntegrationBottleneckDropsObserved(t *testing.T) {
	// The instrumented bottleneck links must actually drop packets during
	// the exploration phase — otherwise the whole control problem is
	// vacuous.
	w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 1, Traffic: CBR}, Topo: "b,sessions=4", Duration: 60})
	w.Run(60 * sim.Second)
	if w.Build.Bottlenecks[0].Stats().Dropped == 0 {
		t.Error("no drops on the shared bottleneck during exploration")
	}
}

func TestIntegrationProbeDiscoveryConverges(t *testing.T) {
	// The full control loop works when topology comes from hop-by-hop
	// mtrace-style probes instead of the oracle.
	w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 6, Traffic: CBR, ProbeDiscovery: true}, Topo: "b,sessions=2", Duration: 240})
	w.Run(240 * sim.Second)
	for s := range w.Receivers {
		if got := w.Receivers[s][0].Level(); got < 3 || got > 5 {
			t.Errorf("session %d at level %d with probe discovery, want ~4", s, got)
		}
	}
	if w.Tool.ProbePackets == 0 {
		t.Error("probe mode never probed")
	}
}

func TestIntegrationProbeVsOracleSimilar(t *testing.T) {
	run := func(probe bool) float64 {
		w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 7, Traffic: CBR, ProbeDiscovery: probe}, Topo: "a,rxset=2", Duration: 300})
		w.Run(300 * sim.Second)
		traces, optima := w.AllTraces()
		return metrics.MeanRelativeDeviation(traces, optima, 0, 300*sim.Second)
	}
	oracle, probe := run(false), run(true)
	// Probe discovery trails reality by a path RTT; quality must stay in
	// the same regime (within 3x or 0.1 absolute).
	if probe > 3*oracle && probe-oracle > 0.1 {
		t.Errorf("probe discovery collapsed quality: oracle %.3f, probe %.3f", oracle, probe)
	}
}
