package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"toposense/internal/sim"
	"toposense/internal/trace"
)

// Figure 9's fixed parameters, as in the paper: four competing VBR(P=3)
// sessions sampled every 500 ms, shown through a 10 s window.
const (
	fig9Sessions  = 4
	fig9Sample    = 500 * sim.Millisecond
	fig9WindowLen = 10 * sim.Second
)

// Fig9Result carries the sampled series: per session, the subscription
// level and the observed loss rate over time.
type Fig9Result struct {
	Levels []*trace.Series // one per session
	Losses []*trace.Series // one per session
	Window struct {
		From, To sim.Time
	}
}

// fig9Specs enumerates Figure 9 ("Layer Subscription and Loss History")
// as a single run whose rows are the *Fig9Result sampled series.
func fig9Specs(cfg SweepConfig) []Spec {
	dur := scaled(cfg, PaperDuration, QuickDuration)
	// A window straddling a capacity re-estimation cycle shows the
	// over-subscription bursts the paper highlights.
	windowFrom := dur/2 - fig9WindowLen/2
	return []Spec{NewSpec("9",
		fmt.Sprintf("fig9/sessions=%d/%s", fig9Sessions, VBR3.Name),
		cfg.Seed, dur,
		func(m *Meter) (any, error) {
			w, err := Scenario{WorldConfig: WorldConfig{Seed: cfg.Seed, Traffic: VBR3},
				Topo: fmt.Sprintf("b,sessions=%d", fig9Sessions), Duration: dur.Seconds()}.Assemble(m)
			if err != nil {
				return nil, err
			}
			sampler := trace.NewSampler(w.Engine, fig9Sample)
			res := &Fig9Result{}
			res.Window.From = windowFrom
			res.Window.To = windowFrom + fig9WindowLen
			for s := range w.Receivers {
				rx := w.Receivers[s][0]
				lvl := fmt.Sprintf("session%d/level", s)
				lss := fmt.Sprintf("session%d/loss", s)
				sampler.Probe(lvl, func() float64 { return float64(rx.Level()) })
				sampler.Probe(lss, func() float64 { return rx.LastLoss })
			}
			sampler.Start()
			w.Run(dur)
			sampler.Stop()
			for s := 0; s < fig9Sessions; s++ {
				res.Levels = append(res.Levels, sampler.Series(fmt.Sprintf("session%d/level", s)))
				res.Losses = append(res.Losses, sampler.Series(fmt.Sprintf("session%d/loss", s)))
			}
			return res, nil
		})}
}

// WindowTable renders the paper's 10-second window sample by sample.
func (r *Fig9Result) WindowTable() *Table {
	t := &Table{
		Title: fmt.Sprintf("Figure 9: subscription and loss, %d sessions, window %.0f-%.0f s",
			len(r.Levels), r.Window.From.Seconds(), r.Window.To.Seconds()),
	}
	t.Header = []string{"t (s)"}
	for s := range r.Levels {
		t.Header = append(t.Header, fmt.Sprintf("s%d lvl", s), fmt.Sprintf("s%d loss", s))
	}
	if len(r.Levels) == 0 || r.Levels[0] == nil {
		return t
	}
	lv := make([]*trace.Series, len(r.Levels))
	ls := make([]*trace.Series, len(r.Losses))
	for s := range r.Levels {
		lv[s] = r.Levels[s].Window(r.Window.From, r.Window.To)
		ls[s] = r.Losses[s].Window(r.Window.From, r.Window.To)
	}
	for i := 0; i < lv[0].Len(); i++ {
		at, _ := lv[0].At(i)
		row := []string{fmt.Sprintf("%.1f", at.Seconds())}
		for s := range lv {
			_, level := lv[s].At(i)
			_, loss := ls[s].At(i)
			row = append(row, fmt.Sprintf("%.0f", level), fmt.Sprintf("%.3f", loss))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig9Summary is the JSON-friendly reduction of one session's series —
// what the Result export carries instead of the raw samples.
type Fig9Summary struct {
	Session    int     `json:"session"`
	MeanLevel  float64 `json:"mean_level"`
	MeanLoss   float64 `json:"mean_loss"`
	OverSubPct float64 `json:"oversub_pct"` // % of samples at level >= 5
}

// SummaryRows reduces each session's series to its summary statistics.
func (r *Fig9Result) SummaryRows() []Fig9Summary {
	var rows []Fig9Summary
	for s, lv := range r.Levels {
		if lv == nil || lv.Len() == 0 {
			continue
		}
		over := 0
		for i := 0; i < lv.Len(); i++ {
			_, v := lv.At(i)
			if v >= 5 {
				over++
			}
		}
		rows = append(rows, Fig9Summary{
			Session:    s,
			MeanLevel:  lv.Mean(),
			MeanLoss:   r.Losses[s].Mean(),
			OverSubPct: 100 * float64(over) / float64(lv.Len()),
		})
	}
	return rows
}

// MarshalJSON exports the window bounds and per-session summaries; the raw
// sampled series stay out of the JSON (they are table inputs, not results).
func (r *Fig9Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		WindowFromS float64       `json:"window_from_s"`
		WindowToS   float64       `json:"window_to_s"`
		Sessions    []Fig9Summary `json:"sessions"`
	}{r.Window.From.Seconds(), r.Window.To.Seconds(), r.SummaryRows()})
}

// Summary reports, per session, how much of the run was spent at each
// level and whether over-subscription to layers 5/6 occurred (the paper's
// observation about capacity re-estimation).
func (r *Fig9Result) Summary() string {
	var b strings.Builder
	for _, s := range r.SummaryRows() {
		fmt.Fprintf(&b, "session %d: mean level %.2f, loss mean %.3f, %.1f%% of samples over-subscribed (>=5)\n",
			s.Session, s.MeanLevel, s.MeanLoss, s.OverSubPct)
	}
	return b.String()
}
