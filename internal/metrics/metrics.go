// Package metrics implements the paper's evaluation measures: the relative
// deviation from the optimal subscription (Section IV), and the stability
// measures of Figures 6 and 7 (number of subscription changes, mean time
// between successive changes).
package metrics

import (
	"sort"

	"toposense/internal/sim"
)

// Point is one step of a subscription-level trace.
type Point struct {
	At    sim.Time
	Level int
}

// Trace is a right-continuous step function of a receiver's subscription
// level over time. Points must be added in nondecreasing time order.
type Trace struct {
	points []Point
}

// pointArrays holds the arrays traces have outgrown, for the next trace to
// grow into. Traces are kept for the life of their run, so only outgrown
// arrays come back.
var pointArrays = sim.NewArrayPool(Point{At: -1 << 62, Level: -1 << 40})

// TraceArraysMade returns how many point arrays traces have made so far
// across the process.
func TraceArraysMade() int64 { return pointArrays.Made() }

// NewTrace starts a trace at level `initial` from time `start`, with room
// for its first change too: that one always adds a point (see Set).
func NewTrace(start sim.Time, initial int) *Trace { return &NewTraces(1, start, initial)[0] }

// NewTraces starts n traces as NewTrace does, in one block: a world's
// receiver slots keep theirs for the whole run.
func NewTraces(n int, start sim.Time, initial int) []Trace {
	trs := make([]Trace, n)
	for i := range trs {
		trs[i].points = append(pointArrays.Get(2), Point{At: start, Level: initial})
	}
	return trs
}

// add appends pt, growing the points through pointArrays.
func (tr *Trace) add(pt Point) {
	tr.points = append(pointArrays.Grow(tr.points, len(tr.points)+1), pt)
}

// Set records a level change at time at; time must be nondecreasing (the
// shared sim.MustMonotonic contract).
func (tr *Trace) Set(at sim.Time, level int) {
	last := tr.points[len(tr.points)-1]
	sim.MustMonotonic("metrics", "", at, last.At)
	if level == last.Level {
		return
	}
	if at == last.At {
		if len(tr.points) == 1 {
			// The sole point is the trace's initial condition, not a
			// recorded change. Overwriting it would rewrite history (LevelAt
			// before `at` would report the new level) and hide a real
			// change, so record a zero-width step instead.
			tr.add(Point{At: at, Level: level})
			return
		}
		// Same-instant change: overwrite rather than create a zero-width
		// step.
		tr.points[len(tr.points)-1].Level = level
		// Collapse if this made it equal to the previous point.
		if n := len(tr.points); n >= 2 && tr.points[n-2].Level == level {
			tr.points = tr.points[:n-1]
		}
		return
	}
	tr.add(Point{At: at, Level: level})
}

// LevelAt returns the level in effect at time at (the trace's initial level
// for times before the first point).
func (tr *Trace) LevelAt(at sim.Time) int {
	idx := sort.Search(len(tr.points), func(i int) bool { return tr.points[i].At > at })
	if idx == 0 {
		return tr.points[0].Level
	}
	return tr.points[idx-1].Level
}

// Points returns a copy of the trace's steps.
func (tr *Trace) Points() []Point { return append([]Point(nil), tr.points...) }

// Changes counts level changes strictly inside (from, to].
func (tr *Trace) Changes(from, to sim.Time) int {
	count := 0
	for i := 1; i < len(tr.points); i++ {
		if tr.points[i].At > from && tr.points[i].At <= to {
			count++
		}
	}
	return count
}

// MeanTimeBetweenChanges returns the mean gap between successive changes in
// (from, to]. With fewer than two changes it returns the window length and
// ok=false — the subscription was (almost) flat, and the paper plots the
// full window in that case.
func (tr *Trace) MeanTimeBetweenChanges(from, to sim.Time) (sim.Time, bool) {
	var times []sim.Time
	for i := 1; i < len(tr.points); i++ {
		if tr.points[i].At > from && tr.points[i].At <= to {
			times = append(times, tr.points[i].At)
		}
	}
	if len(times) < 2 {
		return to - from, false
	}
	var total sim.Time
	for i := 1; i < len(times); i++ {
		total += times[i] - times[i-1]
	}
	return total / sim.Time(len(times)-1), true
}

// RelativeDeviation computes the paper's metric over [from, to]:
//
//	Σ_Δt |x(Δt) − y| · ‖Δt‖  /  Σ_Δt y · ‖Δt‖
//
// i.e. the time integral of |subscription − optimal| normalized by the
// integral of the optimal. Zero means the receiver sat at the optimal the
// whole window. The optimal must be positive.
func (tr *Trace) RelativeDeviation(optimal int, from, to sim.Time) float64 {
	if optimal <= 0 {
		panic("metrics: optimal subscription must be positive")
	}
	if to <= from {
		panic("metrics: empty deviation window")
	}
	var devInt float64 // integral of |x - y| dt
	cur := from
	level := tr.LevelAt(from)
	idx := sort.Search(len(tr.points), func(i int) bool { return tr.points[i].At > from })
	for ; idx < len(tr.points) && tr.points[idx].At < to; idx++ {
		seg := tr.points[idx].At - cur
		devInt += absInt(level-optimal) * float64(seg)
		cur = tr.points[idx].At
		level = tr.points[idx].Level
	}
	devInt += absInt(level-optimal) * float64(to-cur)
	return devInt / (float64(optimal) * float64(to-from))
}

func absInt(x int) float64 {
	if x < 0 {
		return float64(-x)
	}
	return float64(x)
}

// MeanRelativeDeviation averages RelativeDeviation across traces with
// per-trace optima.
func MeanRelativeDeviation(traces []*Trace, optima []int, from, to sim.Time) float64 {
	if len(traces) == 0 {
		return 0
	}
	if len(traces) != len(optima) {
		panic("metrics: traces and optima length mismatch")
	}
	total := 0.0
	for i, tr := range traces {
		total += tr.RelativeDeviation(optima[i], from, to)
	}
	return total / float64(len(traces))
}

// MaxChanges returns the maximum change count over the traces in (from,to]
// — the paper plots "the maximum number of changes in subscription by any
// receiver".
func MaxChanges(traces []*Trace, from, to sim.Time) int {
	max := 0
	for _, tr := range traces {
		if c := tr.Changes(from, to); c > max {
			max = c
		}
	}
	return max
}

// MeanTimeBetweenChangesOfBusiest returns the mean time between changes of
// the trace with the most changes (the receiver Figure 6 tracks).
func MeanTimeBetweenChangesOfBusiest(traces []*Trace, from, to sim.Time) sim.Time {
	var busiest *Trace
	max := -1
	for _, tr := range traces {
		if c := tr.Changes(from, to); c > max {
			max = c
			busiest = tr
		}
	}
	if busiest == nil {
		return to - from
	}
	mean, _ := busiest.MeanTimeBetweenChanges(from, to)
	return mean
}
