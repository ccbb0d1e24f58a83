package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"toposense/internal/sim"
	"toposense/internal/trace"
)

// The link failure/repair experiment: Topology B carrying CBR sessions with
// the shared bottleneck cut a third of the way into the run. The paper
// varies only how stale the controller's information is; this run varies
// the network itself and measures how long the sessions take to return to
// their pre-failure subscription levels.

// failureSample is the level and throughput sampling period.
const failureSample = 500 * sim.Millisecond

// settleWindow is the span used to average levels before the failure and at
// the end of the run, and to window throughput comparisons.
const settleWindow = 30 * sim.Second

// FailureRow summarizes one session's ride through the outage.
type FailureRow struct {
	Session int `json:"session"`
	// PreLevel is the mean subscription level over the 30 s before the
	// failure.
	PreLevel float64 `json:"pre_level"`
	// MinLevel is the lowest level between the failure and 60 s past the
	// repair — the depth of the post-repair loss-spike dip.
	MinLevel float64 `json:"min_level"`
	// PostLevel is the mean level over the final 30 s of the run.
	PostLevel float64 `json:"post_level"`
	// RecoverS is how many seconds after the repair the level was last seen
	// below its pre-failure value (0 = never dipped after repair; -1 =
	// still below at the end of the run).
	RecoverS float64 `json:"recover_s"`
	// Recovered reports PostLevel ~ PreLevel.
	Recovered bool `json:"recovered"`
}

// FailureResult carries the rows plus the event bookkeeping the report
// prints.
type FailureResult struct {
	FailAt   sim.Time
	RepairAt sim.Time
	Rows     []FailureRow

	// Control-plane work the event caused.
	TreeRepairs  int64 `json:"tree_repairs"`
	Grafts       int64 `json:"grafts"`
	Prunes       int64 `json:"prunes"`
	LinkFailures int64 `json:"link_failures"`
	LinkRepairs  int64 `json:"link_repairs"`
	Unroutable   int64 `json:"unroutable"`

	// Bottleneck throughput means (Mbit/s) before, during and after the
	// outage.
	ThroughputPre    float64 `json:"throughput_pre_mbps"`
	ThroughputDuring float64 `json:"throughput_during_mbps"`
	ThroughputPost   float64 `json:"throughput_post_mbps"`
}

// failureSpecs enumerates the experiment as a single run whose rows are the
// *FailureResult. The quick form runs fewer sessions through a shorter
// outage: it must still leave them room to climb back before it ends.
func failureSpecs(cfg SweepConfig) []Spec {
	dur := scaled(cfg, studyDuration, QuickDuration)
	sessions := scaled(cfg, 4, 2)
	outage := scaled(cfg, 60*sim.Second, 30*sim.Second)
	failAt := dur / 3
	return []Spec{NewSpec("fig_failure",
		fmt.Sprintf("fig_failure/sessions=%d/%s/outage=%.0fs", sessions, CBR.Name, outage.Seconds()),
		cfg.Seed, dur,
		func(m *Meter) (any, error) {
			w, err := Scenario{WorldConfig: WorldConfig{Seed: cfg.Seed, Traffic: CBR}, Topo: fmt.Sprintf("b,sessions=%d", sessions),
				Duration: dur.Seconds(), FailAt: failAt.Seconds(), Outage: outage.Seconds()}.Assemble(m)
			if err != nil {
				return nil, err
			}
			bl, inj := w.Build.Bottlenecks[0], w.Faults

			res := &FailureResult{FailAt: failAt, RepairAt: failAt + outage}
			sampler := trace.NewSampler(w.Engine, failureSample)
			for s := range w.Receivers {
				rx := w.Receivers[s][0]
				sampler.Probe(fmt.Sprintf("session%d/level", s), func() float64 { return float64(rx.Level()) })
			}
			var lastTx int64
			perSample := failureSample.Seconds()
			sampler.Probe("bottleneck/mbps", func() float64 {
				tx := bl.Stats().TxBytes
				mbps := float64(tx-lastTx) * 8 / perSample / 1e6
				lastTx = tx
				return mbps
			})
			sampler.Start()
			w.Run(dur)
			sampler.Stop()

			for s := 0; s < sessions; s++ {
				lv := sampler.Series(fmt.Sprintf("session%d/level", s))
				res.Rows = append(res.Rows, failureRow(s, lv, res.FailAt, res.RepairAt, dur))
			}
			// The bottleneck's delivered rate in Mbit/s per sample.
			tput := sampler.Series("bottleneck/mbps")
			res.ThroughputPre = tput.Window(res.FailAt-settleWindow, res.FailAt).Mean()
			res.ThroughputDuring = tput.Window(res.FailAt+sim.Second, res.RepairAt).Mean()
			res.ThroughputPost = tput.Window(dur-settleWindow, dur).Mean()
			res.TreeRepairs = w.Domain.Repairs
			res.Grafts = w.Domain.Grafts
			res.Prunes = w.Domain.Prunes
			res.LinkFailures = inj.Failures
			res.LinkRepairs = inj.Repairs
			res.Unroutable = w.Net.Unroutable
			return res, nil
		})}
}

// failureRow reduces one session's level series to its recovery summary.
func failureRow(session int, lv *trace.Series, failAt, repairAt, duration sim.Time) FailureRow {
	row := FailureRow{Session: session, RecoverS: -1}
	if lv == nil || lv.Len() == 0 {
		return row
	}
	row.PreLevel = lv.Window(failAt-settleWindow, failAt).Mean()
	row.PostLevel = lv.Window(duration-settleWindow, duration).Mean()

	dip := lv.Window(failAt, repairAt+60*sim.Second)
	min := math.Inf(1)
	for i := 0; i < dip.Len(); i++ {
		if _, v := dip.At(i); v < min {
			min = v
		}
	}
	if !math.IsInf(min, 1) {
		row.MinLevel = min
	}

	// Recovery time: the last moment after the repair the level sat below
	// its pre-failure value. 0 means it never dipped below after repair.
	pre := math.Round(row.PreLevel)
	tail := lv.Window(repairAt, duration)
	row.RecoverS = 0
	for i := 0; i < tail.Len(); i++ {
		if at, v := tail.At(i); v < pre {
			row.RecoverS = (at - repairAt).Seconds()
			if i == tail.Len()-1 {
				row.RecoverS = -1 // still down at the end of the run
			}
		}
	}
	row.Recovered = row.PostLevel >= row.PreLevel-0.5
	return row
}

// Table renders the per-session recovery summary.
func (r *FailureResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("fig_failure: bottleneck outage %.0f-%.0f s",
			r.FailAt.Seconds(), r.RepairAt.Seconds()),
		Header: []string{"session", "pre lvl", "min lvl", "post lvl", "recover (s)", "recovered"},
	}
	for _, row := range r.Rows {
		rec := fmt.Sprintf("%.1f", row.RecoverS)
		if row.RecoverS < 0 {
			rec = "never"
		}
		t.AddRow(fmt.Sprintf("%d", row.Session),
			fmt.Sprintf("%.2f", row.PreLevel),
			fmt.Sprintf("%.1f", row.MinLevel),
			fmt.Sprintf("%.2f", row.PostLevel),
			rec,
			fmt.Sprintf("%v", row.Recovered))
	}
	return t
}

// Summary reports the event bookkeeping and throughput through the outage.
func (r *FailureResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "link failures %d, repairs %d; tree repairs %d (grafts %d, prunes %d); unroutable control packets %d\n",
		r.LinkFailures, r.LinkRepairs, r.TreeRepairs, r.Grafts, r.Prunes, r.Unroutable)
	fmt.Fprintf(&b, "bottleneck throughput: %.2f Mbps before, %.2f during outage, %.2f after recovery\n",
		r.ThroughputPre, r.ThroughputDuring, r.ThroughputPost)
	return b.String()
}

// MarshalJSON exports the outage window in seconds, the rows and the scalar
// stats.
func (r *FailureResult) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		FailAtS          float64      `json:"fail_at_s"`
		RepairAtS        float64      `json:"repair_at_s"`
		Sessions         []FailureRow `json:"sessions"`
		TreeRepairs      int64        `json:"tree_repairs"`
		Grafts           int64        `json:"grafts"`
		Prunes           int64        `json:"prunes"`
		LinkFailures     int64        `json:"link_failures"`
		LinkRepairs      int64        `json:"link_repairs"`
		Unroutable       int64        `json:"unroutable"`
		ThroughputPre    float64      `json:"throughput_pre_mbps"`
		ThroughputDuring float64      `json:"throughput_during_mbps"`
		ThroughputPost   float64      `json:"throughput_post_mbps"`
	}{
		r.FailAt.Seconds(), r.RepairAt.Seconds(), r.Rows,
		r.TreeRepairs, r.Grafts, r.Prunes, r.LinkFailures, r.LinkRepairs,
		r.Unroutable, r.ThroughputPre, r.ThroughputDuring, r.ThroughputPost,
	})
}
