// Package trace records time series for experiment output: Series holds
// (time, value) samples and Sampler fills named series from probes on a
// fixed period — the subscription-level and loss-rate traces behind the
// paper's Figure 9 and toposim's -tsv export.
package trace

import (
	"fmt"
	"io"
	"sort"

	"toposense/internal/sim"
)

// Series is a named sequence of (time, value) samples in time order.
type Series struct {
	Name   string
	Times  []sim.Time
	Values []float64
	// clipped marks a series that is a restriction of a longer one:
	// Window set it because samples fell outside the requested range, or
	// the source series was itself clipped. Consumers use it to tell "this
	// is everything that was recorded" from "this is a cut".
	clipped bool
}

// NewSeries creates an empty series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample; time must be nondecreasing (the shared
// sim.MustMonotonic contract).
func (s *Series) Add(at sim.Time, v float64) {
	if n := len(s.Times); n > 0 {
		sim.MustMonotonic("trace", s.Name, at, s.Times[n-1])
	}
	s.Times = append(s.Times, at)
	s.Values = append(s.Values, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Times) }

// At returns the i-th sample.
func (s *Series) At(i int) (sim.Time, float64) { return s.Times[i], s.Values[i] }

// Window returns a new series restricted to samples in [from, to]. The
// result is marked clipped when the restriction excluded samples (or the
// source was already clipped), so downstream consumers can tell a partial
// view from the full recording.
func (s *Series) Window(from, to sim.Time) *Series {
	lo := sort.Search(len(s.Times), func(i int) bool { return s.Times[i] >= from })
	hi := sort.Search(len(s.Times), func(i int) bool { return s.Times[i] > to })
	if hi < lo {
		hi = lo // inverted range: empty window
	}
	out := NewSeries(s.Name)
	out.Times = append(out.Times, s.Times[lo:hi]...)
	out.Values = append(out.Values, s.Values[lo:hi]...)
	out.clipped = s.clipped || hi-lo < len(s.Times)
	return out
}

// Clipped reports whether this series is a restriction of a longer one.
func (s *Series) Clipped() bool { return s.clipped }

// Max returns the maximum value (0 for an empty series).
func (s *Series) Max() float64 {
	max := 0.0
	for i, v := range s.Values {
		if i == 0 || v > max {
			max = v
		}
	}
	return max
}

// Mean returns the arithmetic mean (0 for an empty series).
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range s.Values {
		total += v
	}
	return total / float64(len(s.Values))
}

// WriteTSV emits "time<TAB>value" lines, suitable for plotting tools.
func (s *Series) WriteTSV(w io.Writer) error {
	for i := range s.Times {
		if _, err := fmt.Fprintf(w, "%.3f\t%g\n", s.Times[i].Seconds(), s.Values[i]); err != nil {
			return err
		}
	}
	return nil
}

// Sampler periodically samples named probes into Series. Its ticker runs
// on the scheduler's global context: probes read state owned by arbitrary
// components (receivers, links), so on a sharded engine they must fire at
// barriers with every shard quiescent.
type Sampler struct {
	engine sim.Scheduler
	period sim.Time
	probes []func() (name string, v float64)
	series map[string]*Series
	ticker *sim.Ticker
}

// NewSampler creates a sampler on the scheduler with the given period.
func NewSampler(engine sim.Scheduler, period sim.Time) *Sampler {
	return &Sampler{engine: sim.GlobalOf(engine), period: period, series: make(map[string]*Series)}
}

// Probe registers a named value source sampled every period.
func (sp *Sampler) Probe(name string, fn func() float64) {
	sp.probes = append(sp.probes, func() (string, float64) { return name, fn() })
	if sp.series[name] == nil {
		sp.series[name] = NewSeries(name)
	}
}

// Start begins sampling.
func (sp *Sampler) Start() {
	if sp.ticker != nil {
		return
	}
	sp.ticker = sim.Every(sp.engine, sp.period, func() {
		now := sp.engine.Now()
		for _, probe := range sp.probes {
			name, v := probe()
			sp.series[name].Add(now, v)
		}
	})
}

// Stop halts sampling.
func (sp *Sampler) Stop() {
	if sp.ticker != nil {
		sp.ticker.Stop()
		sp.ticker = nil
	}
}

// Series returns the series recorded under name, or nil.
func (sp *Sampler) Series(name string) *Series { return sp.series[name] }

// Names returns all recorded series names, sorted.
func (sp *Sampler) Names() []string {
	out := make([]string, 0, len(sp.series))
	for n := range sp.series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
