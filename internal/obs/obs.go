// Package obs is the simulator's unified observability layer: typed
// zero-allocation counters and fixed-bucket histograms in a registry, a
// fixed-capacity flight recorder holding the most recent packet / tree /
// controller events, and a controller decision audit log that records, per
// pass, what the controller saw and what it prescribed.
//
// The layer is strictly opt-in and pay-for-what-you-use:
//
//   - Disabled (the default) it costs nothing. The packet plane is observed
//     through netsim.Probe, so with no probe attached the hot path is
//     byte-for-byte the code that ran before this package existed; the
//     mcast/controller hooks are a single nil check. Every instrument's
//     method is also safe on a nil receiver, so call sites never need a
//     guard of their own.
//   - Enabled, the steady-state cost is an integer add (Counter), a bucket
//     scan over a handful of float bounds (Histogram), or a struct copy
//     into a preallocated ring (Recorder). None of them allocate; the
//     obs-gate benchmarks (make bench-obs-gate) pin allocs/op at zero.
//
// Observation never perturbs the simulation: nothing here schedules
// events, draws from the engine's RNG, or mutates model state, so a run
// with observability enabled is event-for-event identical to one without
// — the determinism test in internal/experiments proves it, and the
// export is byte-identical across runs of the same seed.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 counter. The zero value is
// ready to use; all methods are no-ops on a nil receiver so wiring can be
// left unconditioned. Counts move atomically: on a sharded engine the same
// instrument is hit from every shard's worker. A counter registered with
// Registry.CounterFunc holds no count of its own: Value calls its reader.
type Counter struct {
	name string
	v    int64
	read func() int64 // non-nil for a CounterFunc counter
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		atomic.AddInt64(&c.v, 1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		atomic.AddInt64(&c.v, n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	if c.read != nil {
		return c.read()
	}
	return atomic.LoadInt64(&c.v)
}

// Name returns the registered name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Histogram counts observations into fixed buckets. Bucket i counts values
// v <= Bounds[i] (and greater than Bounds[i-1]); one overflow bucket counts
// values above the last bound. Bounds are fixed at registration, so
// Observe never allocates. All methods are no-ops on a nil receiver.
// Observations are serialized by a mutex (min/max/sum update together).
// A float sum depends on the order of its terms in the last bits, so on a
// sharded engine each execution context keeps a partial sum of its own
// (ObserveIn; Obs.Partition sets them up) and Sum adds the partials in
// context order: the total is the same however the shards interleaved.
type Histogram struct {
	name   string
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; counts has len(bounds)+1
	counts []int64
	count  int64
	sums   []float64 // partial sums by execution context
	min    float64
	max    float64
}

// Observe records one value in context 0: the only one, or the global
// context.
func (h *Histogram) Observe(v float64) { h.ObserveIn(0, v) }

// ObserveIn records one value observed in execution context ctx (see
// Obs.Context).
func (h *Histogram) ObserveIn(ctx int, v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sums[ctx] += v
	// Linear scan: bucket lists are short (≤ ~16) and branch-predictable,
	// which beats binary search at this size and keeps the code alloc-free.
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum()
}

// sum adds the partial sums in context order; h.mu must be held.
func (h *Histogram) sum() float64 {
	s := h.sums[0]
	for _, p := range h.sums[1:] {
		s += p
	}
	return s
}

// Mean returns the arithmetic mean (0 with no observations).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum() / float64(h.count)
}

// Name returns the registered name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Registry holds every registered instrument. Registration happens on the
// cold path (setup); hot paths hold the returned *Counter / *Histogram
// directly and never consult the registry again. Instruments are stored
// densely in registration order; exports emit them sorted by name so the
// output is independent of wiring order.
type Registry struct {
	counters []*Counter
	hists    []*Histogram
	byName   map[string]int // name -> index (counters and histograms share the namespace)
	contexts int            // partial sums per histogram (split)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int), contexts: 1}
}

// split gives every histogram, present and future, one partial sum per
// execution context; ObserveIn's ctx picks one. Call it before anything is
// observed.
func (r *Registry) split(contexts int) {
	if r == nil || contexts <= r.contexts {
		return
	}
	r.contexts = contexts
	for _, h := range r.hists {
		h.sums = make([]float64, contexts)
	}
}

// Counter registers (or returns the existing) counter under name.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if i, ok := r.byName[name]; ok {
		if i >= histBase {
			panic(fmt.Sprintf("obs: %q already registered as a histogram", name))
		}
		if r.counters[i].read != nil {
			panic(fmt.Sprintf("obs: %q already registered as a CounterFunc", name))
		}
		return r.counters[i]
	}
	c := &Counter{name: name}
	r.byName[name] = len(r.counters)
	r.counters = append(r.counters, c)
	return c
}

// CounterFunc registers name as a counter that owns no count: every Value
// (and so every Dump) calls read, which returns a count a component already
// keeps. It exports beside the pushed counters, sorted with them. Dump only
// while the simulation is quiescent — read runs on the dumping goroutine.
// Registering a name twice panics.
func (r *Registry) CounterFunc(name string, read func() int64) {
	if r == nil {
		return
	}
	if _, ok := r.byName[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered", name))
	}
	r.byName[name] = len(r.counters)
	r.counters = append(r.counters, &Counter{name: name, read: read})
}

// Histogram registers (or returns the existing) histogram under name with
// the given ascending bucket bounds. Bounds are copied; re-registration
// ignores the new bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if i, ok := r.byName[name]; ok {
		// Histograms and counters share byName but live in separate slices;
		// a histogram's index is offset past the counters namespace.
		if i >= histBase {
			return r.hists[i-histBase]
		}
		panic(fmt.Sprintf("obs: %q already registered as a counter", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
		sums:   make([]float64, r.contexts),
	}
	r.byName[name] = histBase + len(r.hists)
	r.hists = append(r.hists, h)
	return h
}

// histBase offsets histogram indices in Registry.byName so one map can
// address both dense slices.
const histBase = 1 << 30

// Counters returns the registered counters sorted by name.
func (r *Registry) Counters() []*Counter {
	if r == nil {
		return nil
	}
	out := append([]*Counter(nil), r.counters...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Histograms returns the registered histograms sorted by name.
func (r *Registry) Histograms() []*Histogram {
	if r == nil {
		return nil
	}
	out := append([]*Histogram(nil), r.hists...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
