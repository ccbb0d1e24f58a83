package experiments

import (
	"strings"
	"testing"

	"toposense/internal/sim"
)

// The TestRunXScaled tests run each experiment's quick registry form — what
// `topobench -quick` executes — and check the behaviour its rows must show;
// the full paper-scale sweeps run in cmd/topobench, and
// TestRegistrySpecList pins what they enumerate.

func TestWorldAssemblyA(t *testing.T) {
	w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 1, Traffic: CBR}, Topo: "a,rxset=2", Duration: 10})
	if len(w.Sources) != 1 || len(w.Receivers[0]) != 4 {
		t.Fatalf("world shape: %d sources, %d receivers", len(w.Sources), len(w.Receivers[0]))
	}
	w.Run(10 * sim.Second)
	if w.Controller.StepsRun == 0 {
		t.Error("controller idle")
	}
	traces, optima := w.AllTraces()
	if len(traces) != 4 || len(optima) != 4 {
		t.Errorf("traces/optima: %d/%d", len(traces), len(optima))
	}
	// Start is idempotent.
	w.Start()
}

func TestWorldAssemblyB(t *testing.T) {
	w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 1, Traffic: VBR3}, Topo: "b,sessions=3", Duration: 10})
	if len(w.Sources) != 3 {
		t.Fatalf("sources = %d", len(w.Sources))
	}
	w.Run(10 * sim.Second)
	for s, rxs := range w.Receivers {
		if rxs[0].Level() < 1 {
			t.Errorf("session %d receiver never joined", s)
		}
	}
}

func TestRunFig6Scaled(t *testing.T) {
	rows := gather[StabilityRow](t, quickSpecs(t, "6"))
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 2 set sizes x 3 traffic models", len(rows))
	}
	for i, r := range rows {
		if r.MaxChanges <= 0 {
			t.Errorf("receivers never changed subscription: %+v", r)
		}
		if r.MeanBetween <= 0 {
			t.Errorf("non-positive mean time between changes: %+v", r)
		}
		if want := AllTraffic[i%3].Name; r.Traffic != want {
			t.Errorf("row %d traffic label %q, want %q", i, r.Traffic, want)
		}
	}
	if rows[0].X != 2 || rows[3].X != 4 {
		t.Errorf("receiver counts: %+v", rows)
	}
	table := StabilityTable("Figure 6", "receivers", rows)
	if !strings.Contains(table.String(), "max changes") {
		t.Error("table missing header")
	}
}

func TestRunFig7Scaled(t *testing.T) {
	rows := gather[StabilityRow](t, quickSpecs(t, "7"))
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.X != 2+2*(i/3) || r.MaxChanges <= 0 {
			t.Errorf("row %+v", r)
		}
	}
}

func TestRunFig8Scaled(t *testing.T) {
	rows := gather[FairnessRow](t, quickSpecs(t, "8"))
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.DevFirst < 0 || r.DevSecond < 0 {
			t.Errorf("negative deviation: %+v", r)
		}
	}
	// CBR at 2 sessions should track the optimum closely even in a short
	// run — the headline fairness result.
	if r := rows[0]; r.Sessions != 2 || r.Traffic != "CBR" || r.DevFirst > 0.30 || r.DevSecond > 0.20 {
		t.Errorf("deviation too large: %+v", r)
	}
	if !strings.Contains(FairnessTable(rows).String(), "sessions") {
		t.Error("fairness table broken")
	}
}

func TestRunFig9Scaled(t *testing.T) {
	res := runSingle[*Fig9Result](t, quickSpecs(t, "9"))
	if len(res.Levels) != 4 || len(res.Losses) != 4 {
		t.Fatalf("series count wrong")
	}
	for s := range res.Levels {
		if res.Levels[s].Len() == 0 {
			t.Errorf("session %d level series empty", s)
		}
		if res.Losses[s].Len() != res.Levels[s].Len() {
			t.Errorf("session %d series lengths differ", s)
		}
	}
	wt := res.WindowTable()
	if len(wt.Rows) == 0 {
		t.Error("window table empty")
	}
	if res.Summary() == "" {
		t.Error("summary empty")
	}
}

func TestRunFig10Scaled(t *testing.T) {
	rows := gather[StaleRow](t, quickSpecs(t, "10"))
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Deviation < 0 {
			t.Errorf("negative deviation: %+v", r)
		}
		if want := 2 + 2*(i/3); r.Receivers != want {
			t.Errorf("receivers = %d, want %d", r.Receivers, want)
		}
	}
	if !strings.Contains(StaleTable(rows).String(), "staleness") {
		t.Error("stale table broken")
	}
}

func TestRunBaselineScaled(t *testing.T) {
	rows := gather[BaselineRow](t, quickSpecs(t, "baseline"))
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	algos := map[string]int{}
	for _, r := range rows {
		algos[r.Algo]++
		if r.Deviation < 0 {
			t.Errorf("negative deviation: %+v", r)
		}
	}
	if algos["TopoSense"] != 4 || algos["RLM"] != 4 {
		t.Errorf("algo mix: %v", algos)
	}
	if !strings.Contains(BaselineTable(rows).String(), "RLM") {
		t.Error("baseline table broken")
	}
}

func TestRLMWorld(t *testing.T) {
	w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 1, Traffic: CBR, Plane: PlaneRLM}, Topo: "b,sessions=2", Duration: 60})
	w.Run(60 * sim.Second)
	traces, optima := w.AllTraces()
	if len(traces) != 2 || len(optima) != 2 {
		t.Fatalf("traces = %d", len(traces))
	}
	if len(w.Controllers) != 0 || w.Receivers != nil {
		t.Errorf("RLM world has %d controllers and TopoSense receivers %v", len(w.Controllers), w.Receivers)
	}
	for s := range w.Traces {
		if w.Level(s, 0) < 1 {
			t.Errorf("session %d rlm receiver never joined", s)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	out := tb.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "333") {
		t.Errorf("table output %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("line count %d: %q", len(lines), out)
	}
}

func TestTrafficDefinitions(t *testing.T) {
	if CBR.PeakToMean > 1 || VBR3.PeakToMean != 3 || VBR6.PeakToMean != 6 {
		t.Error("traffic models wrong")
	}
	if len(AllTraffic) != 3 {
		t.Error("AllTraffic wrong")
	}
}

func TestRunAblationScaled(t *testing.T) {
	rows := gather[AblationRow](t, quickSpecs(t, "ablation"))
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 variants", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Variant] = true
		if r.Deviation < 0 || r.MeanLoss < 0 {
			t.Errorf("negative metrics: %+v", r)
		}
	}
	for _, want := range []string{"full", "no-cooldown", "no-backoff", "pin-any-link", "no-resend"} {
		if !names[want] {
			t.Errorf("missing variant %q", want)
		}
	}
	if !strings.Contains(AblationTable(rows).String(), "pin-any-link") {
		t.Error("ablation table broken")
	}
}

func TestRunExtensionsScaled(t *testing.T) {
	results := ExecuteAll(quickSpecs(t, "extensions"))
	sweep := func(prefix string) []ExtensionRow {
		var section []Result
		for _, r := range results {
			if strings.HasPrefix(r.Name, "extensions/"+prefix+"/") {
				section = append(section, r)
			}
		}
		rows, err := GatherRows[ExtensionRow](section)
		if err != nil {
			t.Fatal(err)
		}
		return reduceExtension(rows)
	}
	gran := sweep("granularity")
	if len(gran) != 3 {
		t.Fatalf("granularity rows = %d", len(gran))
	}
	for _, r := range gran {
		if r.Deviation < 0 || r.TimeToOptimal <= 0 {
			t.Errorf("bad row %+v", r)
		}
	}
	// Finer layers must not converge faster than the coarse scheme (adds
	// are one layer at a time).
	if gran[2].TimeToOptimal < gran[0].TimeToOptimal {
		t.Errorf("12-layer scheme converged faster than 6-layer: %v < %v",
			gran[2].TimeToOptimal, gran[0].TimeToOptimal)
	}

	ll := sweep("leave")
	if len(ll) != 5 {
		t.Fatalf("leave-latency rows = %d", len(ll))
	}
	iv := sweep("interval")
	if len(iv) != 4 {
		t.Fatalf("interval rows = %d", len(iv))
	}
	if !strings.Contains(ExtensionTable("x", "p", iv).String(), "rel deviation") {
		t.Error("extension table broken")
	}
}

func TestRunDomainsScaled(t *testing.T) {
	rows := ReduceDomains(gather[DomainRow](t, quickSpecs(t, "domains")))
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (2 variants x 2 domains)", len(rows))
	}
	variants := map[string]int{}
	for _, r := range rows {
		variants[r.Variant]++
		if r.Deviation < 0 {
			t.Errorf("negative deviation: %+v", r)
		}
		// Both architectures must steer every receiver to within one layer
		// of its domain optimum — the paper's subtree-independence claim.
		if !r.FinalOK {
			t.Errorf("%s / %s did not converge", r.Variant, r.Domain)
		}
	}
	if variants["global"] != 2 || variants["per-domain"] != 2 {
		t.Errorf("variant mix: %v", variants)
	}
	if !strings.Contains(DomainsTable(rows).String(), "per-domain") {
		t.Error("domains table broken")
	}
}

func TestPerDomainControllersAreIndependent(t *testing.T) {
	// The per-domain variant runs two controllers that never exchange a
	// message; both must have actually worked (steps and suggestions).
	w := assemble(t, Scenario{WorldConfig: WorldConfig{Seed: 2, Traffic: CBR, Plane: PlanePerDomain}, Topo: "domains", Duration: 120})
	w.Run(120 * sim.Second)
	if len(w.Controllers) != 2 {
		t.Fatalf("controllers = %d", len(w.Controllers))
	}
	if w.Parent != nil || w.Leaves != nil {
		t.Error("per-domain agents must not be federated: nothing may connect them")
	}
	for i, c := range w.Controllers {
		if c.StepsRun == 0 || c.SuggestionsSent == 0 {
			t.Errorf("controller %d idle: steps=%d sugg=%d", i, c.StepsRun, c.SuggestionsSent)
		}
		if n := w.CrossDomainRegs(i); n != 0 {
			t.Errorf("controller %d registered %d receivers from another domain", i, n)
		}
	}
}

func TestRunConvergenceScaled(t *testing.T) {
	// Two runs of four sets each: CBR first, then VBR(P=3).
	both := gather[ConvergenceRow](t, quickSpecs(t, "convergence"))
	if len(both) != 8 {
		t.Fatalf("rows = %d", len(both))
	}
	for i, r := range both {
		if r.Set != i%4+1 || r.Optimal != i%4+1 {
			t.Errorf("set %d: optimal %d (capacities sized for exactly k layers)", r.Set, r.Optimal)
		}
	}
	rows := both[:4]
	for _, r := range rows {
		// CBR heterogeneous convergence is the prior work's headline: the
		// steady-state (modal) level must be the optimum and set-mates
		// must agree.
		if r.ModalLevel != r.Optimal {
			t.Errorf("set %d modal level %d, want %d", r.Set, r.ModalLevel, r.Optimal)
		}
		if !r.IntraFair {
			t.Errorf("set %d not intra-fair", r.Set)
		}
		if r.TimeToOptimal >= QuickDuration && r.Optimal > 1 {
			t.Errorf("set %d never reached optimal", r.Set)
		}
	}
	// Convergence time grows with the target level (one layer at a time).
	for k := 2; k < len(rows); k++ {
		if rows[k].TimeToOptimal < rows[k-1].TimeToOptimal {
			t.Errorf("set %d converged before set %d: %v < %v",
				k+1, k, rows[k].TimeToOptimal, rows[k-1].TimeToOptimal)
		}
	}
	if !strings.Contains(ConvergenceTable(rows).String(), "intra-fair") {
		t.Error("convergence table broken")
	}
}

func TestRunQueuePoliciesScaled(t *testing.T) {
	rows := gather[QueueRow](t, quickSpecs(t, "queues"))
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]QueueRow{}
	for _, r := range rows {
		byName[r.Config] = r
		if r.Deviation < 0 {
			t.Errorf("negative deviation: %+v", r)
		}
	}
	// TopoSense rows meter loss; RLM rows don't.
	if byName["drop-tail + TopoSense (paper)"].MeanLoss <= 0 {
		t.Error("TopoSense loss not metered")
	}
	if byName["drop-tail + RLM"].MeanLoss != 0 {
		t.Error("RLM rows should not meter loss")
	}
	if !strings.Contains(QueueTable(rows).String(), "priority") {
		t.Error("queue table broken")
	}
}

func TestRunVarianceScaled(t *testing.T) {
	rows := ReduceVariance(gather[VarianceSample](t, quickSpecs(t, "variance")))
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Seeds != 3 {
			t.Errorf("seeds = %d", r.Seeds)
		}
		if r.Min > r.Mean || r.Mean > r.Max {
			t.Errorf("summary ordering broken: %+v", r)
		}
		if r.StdDev < 0 {
			t.Errorf("negative stddev: %+v", r)
		}
	}
	if !strings.Contains(VarianceTable(rows).String(), "stddev") {
		t.Error("variance table broken")
	}
}

func TestRunLastMileScaled(t *testing.T) {
	rows := gather[LastMileRow](t, quickSpecs(t, "lastmile"))
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Deviation < 0 || r.UnaffectedDev < 0 {
			t.Errorf("negative deviation: %+v", r)
		}
	}
	// Subtree independence: receivers not behind the tier-2/tier-3
	// constraint must track their own optimum closely.
	for _, r := range rows[1:] {
		if r.UnaffectedDev > 0.15 {
			t.Errorf("%s: unaffected receivers disturbed (dev %.3f)", r.Where, r.UnaffectedDev)
		}
	}
	if !strings.Contains(LastMileTable(rows).String(), "last mile") {
		t.Error("last-mile table broken")
	}
}
