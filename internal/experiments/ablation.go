package experiments

import (
	"fmt"

	"toposense/internal/core"
	"toposense/internal/metrics"
	"toposense/internal/sim"
)

// AblationRow reports one system variant's quality on the standard
// ablation scenario (Topology B, VBR(P=3) — the configuration where every
// mechanism earns its keep).
type AblationRow struct {
	Variant    string
	Deviation  float64
	MaxChanges int
	MeanLoss   float64
}

// ablationSessions is the standard scenario's Topology B session count.
const ablationSessions = 4

// ablationVariant describes one toggled configuration.
type ablationVariant struct {
	name          string
	alg           func(*core.Config)
	disableResend bool
}

// ablationSpecs quantifies the contribution of each engineering decision
// documented in DESIGN.md by disabling them one at a time, one run per
// variant:
//
//	full            — the complete system
//	no-cooldown     — reductions may compound on stale drain feedback
//	no-backoff      — dropped layers may be re-probed immediately
//	pin-any-link    — capacity pinning without the two-observer guard
//	no-resend       — suggestions sent once per interval only
func ablationSpecs(cfg SweepConfig) []Spec {
	dur := scaled(cfg, PaperDuration, QuickDuration)
	variants := []ablationVariant{
		{name: "full"},
		{name: "no-cooldown", alg: func(c *core.Config) { c.DisableCooldown = true }},
		{name: "no-backoff", alg: func(c *core.Config) { c.DisableBackoff = true }},
		{name: "pin-any-link", alg: func(c *core.Config) { c.PinSingleObserver = true }},
		{name: "no-resend", disableResend: true},
	}
	var specs []Spec
	for _, v := range variants {
		specs = append(specs, NewSpec("ablation",
			"ablation/"+v.name, cfg.Seed, dur,
			func(m *Meter) (any, error) {
				algCfg := core.Config{}
				if v.alg != nil {
					v.alg(&algCfg)
				}
				w, err := Scenario{WorldConfig: WorldConfig{Seed: cfg.Seed, Traffic: VBR3, Alg: algCfg},
					Topo: fmt.Sprintf("b,sessions=%d", ablationSessions), Duration: dur.Seconds()}.Assemble(m)
				if err != nil {
					return nil, err
				}
				w.Controller.DisableResend = v.disableResend
				lossSum, lossN := 0.0, 0
				sim.Every(sim.GlobalOf(w.Engine), sim.Second, func() {
					for _, rxs := range w.Receivers {
						lossSum += rxs[0].LastLoss
						lossN++
					}
				})
				w.Run(dur)
				traces, optima := w.AllTraces()
				row := AblationRow{
					Variant:    v.name,
					Deviation:  metrics.MeanRelativeDeviation(traces, optima, 0, dur),
					MaxChanges: metrics.MaxChanges(traces, 0, dur),
				}
				if lossN > 0 {
					row.MeanLoss = lossSum / float64(lossN)
				}
				return []AblationRow{row}, nil
			}))
	}
	return specs
}

// AblationTable renders the ablation sweep.
func AblationTable(rows []AblationRow) *Table {
	t := &Table{
		Title:  "Ablation: each mechanism disabled in isolation (Topology B, VBR)",
		Header: []string{"variant", "rel deviation", "max changes", "mean loss"},
	}
	for _, r := range rows {
		t.AddRow(r.Variant, fmt.Sprintf("%.3f", r.Deviation), fmt.Sprintf("%d", r.MaxChanges), fmt.Sprintf("%.4f", r.MeanLoss))
	}
	return t
}
