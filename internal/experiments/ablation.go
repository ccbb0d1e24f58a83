package experiments

import (
	"fmt"

	"toposense/internal/core"
	"toposense/internal/metrics"
	"toposense/internal/sim"
	"toposense/internal/topology"
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

// AblationConfig parameterizes the ablation sweep.
type AblationConfig struct {
	Seed     int64
	Duration sim.Time // 0 = the paper's 1200 s
	Sessions int      // 0 = 4
	Traffic  Traffic  // zero = VBR(P=3)
}

func (c *AblationConfig) normalize() {
	d := PaperDefaults()
	d.Traffic = VBR3
	c.Duration = d.Dur(c.Duration)
	c.Traffic = d.Tr(c.Traffic)
	if c.Sessions == 0 {
		c.Sessions = 4
	}
}

// ablationVariant describes one toggled configuration.
type ablationVariant struct {
	name          string
	alg           func(*core.Config)
	disableResend bool
}

// AblationSpecs quantifies the contribution of each engineering decision
// documented in DESIGN.md by disabling them one at a time, one run per
// variant:
//
//	full            — the complete system
//	no-cooldown     — reductions may compound on stale drain feedback
//	no-backoff      — dropped layers may be re-probed immediately
//	pin-any-link    — capacity pinning without the two-observer guard
//	no-resend       — suggestions sent once per interval only
func AblationSpecs(cfg AblationConfig) []Spec {
	cfg.normalize()
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
			"ablation/"+v.name, cfg.Seed, cfg.Duration,
			func(m *Meter) (any, error) {
				algCfg := core.Config{}
				if v.alg != nil {
					v.alg(&algCfg)
				}
				e := sim.NewEngine(cfg.Seed)
				b := topology.MustGenerate(e, &topology.BConfig{Sessions: cfg.Sessions})
				w := NewWorld(e, b, WorldConfig{Seed: cfg.Seed, Traffic: cfg.Traffic, Alg: algCfg})
				m.ObserveWorld(w)
				w.Controller.DisableResend = v.disableResend
				lossSum, lossN := 0.0, 0
				sim.Every(sim.GlobalOf(w.Engine), sim.Second, func() {
					for _, rxs := range w.Receivers {
						lossSum += rxs[0].LastLoss
						lossN++
					}
				})
				w.Run(cfg.Duration)
				traces, optima := w.AllTraces()
				row := AblationRow{
					Variant:    v.name,
					Deviation:  metrics.MeanRelativeDeviation(traces, optima, 0, cfg.Duration),
					MaxChanges: metrics.MaxChanges(traces, 0, cfg.Duration),
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
