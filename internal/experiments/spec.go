package experiments

import (
	"fmt"
	"os"
	"time"

	"toposense/internal/netsim"
	"toposense/internal/obs"
	"toposense/internal/sim"
)

// Spec is one independent, schedulable simulation run — the unit of work
// the experiments layer hands to a runner. Every figure enumerates its
// sweep as a []Spec; each Spec owns a fresh engine, network and RNG, so
// runs are share-nothing and can execute concurrently (internal/runner)
// or serially (ExecuteAll) with byte-identical results.
type Spec struct {
	// Name uniquely identifies the run within a sweep, e.g.
	// "fig6/rx=4/VBR(P=3)".
	Name string
	// Figure is the sweep family the run belongs to — the registry key,
	// e.g. "6" or "baseline".
	Figure string
	// Seed is the simulation seed the run's world is built from.
	Seed int64
	// Duration is the simulated run length.
	Duration sim.Time
	// Body builds the world, runs it, and returns the run's typed rows
	// (conventionally a slice such as []StabilityRow). It builds the world
	// through Scenario.Assemble with the Meter it is handed, which registers
	// the world so the runner can report run metadata and enforce
	// wall-clock timeouts.
	Body func(m *Meter) (any, error)
	// Obs enables the observability layer for this run: Execute builds an
	// obs bundle, the Meter wires it into whatever the body registers, and
	// the Result carries the export. False (the default) runs the pre-obs
	// hot path with no probe attached.
	Obs bool
}

// NewSpec constructs a Spec.
func NewSpec(figure, name string, seed int64, duration sim.Time, body func(*Meter) (any, error)) Spec {
	return Spec{Figure: figure, Name: name, Seed: seed, Duration: duration, Body: body}
}

// Meter is handed to every Spec body, whose Scenario.Assemble registers each
// world's engine and network with it; after the run the executor reads
// events fired and packets forwarded from them, and — when a timeout is
// set — a watchdog checks the wall clock as simulated time advances and
// stops the engine cooperatively, keeping everything on the simulation
// goroutine.
type Meter struct {
	start    time.Time
	deadline time.Duration // 0 = no timeout
	timedOut bool
	engines  []sim.Runner
	nets     []*netsim.Network
	obs      *obs.Obs // nil unless the Spec enabled observability
}

// Obs returns the run's observability bundle, or nil when the Spec did not
// enable one. Scenario.Assemble wires it into the world; a body reads it to
// reach the bundle itself, such as its flight recorder. Every instrument and
// recorder is nil-safe, so the return value can be passed along unguarded.
func (m *Meter) Obs() *obs.Obs { return m.obs }

// ObserveWorld registers a World's engine and network — what the executor
// reads run metadata from — arms the wall-clock watchdog when a timeout is
// set, and, when the run has observability enabled, wires the bundle into
// every component of the world through World.WireObs. Scenario.Assemble
// calls it for every world it builds.
func (m *Meter) ObserveWorld(w *World) {
	e := w.Engine
	m.engines = append(m.engines, e)
	m.nets = append(m.nets, w.Net)
	if m.deadline > 0 {
		// The watchdog runs on the global context: on a sharded engine it
		// fires at barriers with every shard parked, so Stop is a plain
		// store no shard races with.
		sim.Every(sim.GlobalOf(e), sim.Second, func() {
			if !m.timedOut && time.Since(m.start) > m.deadline {
				m.timedOut = true
				e.Stop()
			}
		})
	}
	w.WireObs(m.obs)
}

// Result is the outcome of executing one Spec: the run's typed rows plus
// machine-readable run metadata. Results marshal to the BENCH_*.json
// schema documented in EXPERIMENTS.md.
type Result struct {
	Name   string `json:"name"`
	Figure string `json:"figure"`
	Seed   int64  `json:"seed"`
	// SimSeconds is the simulated duration of the run.
	SimSeconds float64 `json:"sim_seconds"`
	// Rows holds the typed rows the body returned; nil when the run
	// failed.
	Rows any `json:"rows,omitempty"`
	// Err is non-empty when the body returned an error, panicked, or hit
	// the wall-clock timeout.
	Err string `json:"error,omitempty"`
	// WallSeconds is the host wall-clock time the run took.
	WallSeconds float64 `json:"wall_seconds"`
	// Events is the number of simulator events executed across the run's
	// observed engines.
	Events uint64 `json:"events"`
	// EventsChained is how many of those were scheduled behind another
	// event for the same instant and never cost a queue entry of their own.
	EventsChained uint64 `json:"events_chained"`
	// Packets is the number of packets forwarded across all links of the
	// run's observed networks.
	Packets int64 `json:"packets_forwarded"`
	// BarrierStallNanos is the host wall time sharded engines' shards spent
	// waiting at barriers for slower ones, summed; 0 on plain engines. Host
	// time varies between runs of one seed, so it stays out of the JSON.
	BarrierStallNanos int64 `json:"-"`
	// EventsPerSecond is Events / WallSeconds — the run's event
	// throughput, the regression-tracking number.
	EventsPerSecond float64 `json:"events_per_second"`
	// Obs is the run's observability export; nil unless the Spec enabled
	// it, so the BENCH_*.json schema is unchanged when observability is
	// off.
	Obs *obs.Dump `json:"obs,omitempty"`
}

// Failed reports whether the run produced an error instead of rows.
func (r Result) Failed() bool { return r.Err != "" }

// Execute runs the Spec body with panic recovery and an optional
// wall-clock timeout, then fills in run metadata. A panicking body yields
// a failed Result, never a crashed process. The timeout is cooperative: a
// watchdog on each observed engine checks the wall clock once per
// simulated second, so a body that stops advancing simulated time is not
// interrupted.
func (s Spec) Execute(timeout time.Duration) Result {
	res := Result{
		Name:       s.Name,
		Figure:     s.Figure,
		Seed:       s.Seed,
		SimSeconds: s.Duration.Seconds(),
	}
	m := &Meter{start: time.Now(), deadline: timeout}
	if s.Obs {
		m.obs = obs.New()
	}
	func() {
		defer func() {
			if p := recover(); p != nil {
				res.Err = fmt.Sprintf("panic: %v", p)
				if m.obs != nil && m.obs.Rec != nil {
					// The flight recorder holds the events leading up to
					// the crash — dump it while the state is still warm.
					fmt.Fprintf(os.Stderr, "run %s panicked: %v\n", s.Name, p)
					m.obs.Rec.WriteLog(os.Stderr)
				}
			}
		}()
		rows, err := s.Body(m)
		switch {
		case m.timedOut:
			res.Err = fmt.Sprintf("timeout after %v", timeout)
		case err != nil:
			res.Err = err.Error()
		default:
			res.Rows = rows
		}
	}()
	res.WallSeconds = time.Since(m.start).Seconds()
	for _, e := range m.engines {
		res.Events += e.Fired()
		st := e.Stats()
		res.EventsChained += st.Chained
		res.BarrierStallNanos += st.BarrierStall
	}
	for _, n := range m.nets {
		for _, l := range n.Links() {
			res.Packets += l.Stats().Delivered
		}
	}
	if res.WallSeconds > 0 {
		res.EventsPerSecond = float64(res.Events) / res.WallSeconds
	}
	if m.obs != nil {
		res.Obs = m.obs.Dump()
	}
	return res
}

// ExecuteAll runs specs serially in order with no timeout. The concurrent
// equivalent is internal/runner.Run; the two produce identical Rows for
// the same specs (the runner's determinism test proves it).
func ExecuteAll(specs []Spec) []Result {
	out := make([]Result, len(specs))
	for i, s := range specs {
		out[i] = s.Execute(0)
	}
	return out
}

// GatherRows concatenates the typed rows of results, in order. It fails on
// the first failed result or row-type mismatch.
func GatherRows[T any](results []Result) ([]T, error) {
	var out []T
	for _, r := range results {
		if r.Failed() {
			return nil, fmt.Errorf("run %s failed: %s", r.Name, r.Err)
		}
		rows, ok := r.Rows.([]T)
		if !ok {
			return nil, fmt.Errorf("run %s: rows are %T, want []%T", r.Name, r.Rows, *new(T))
		}
		out = append(out, rows...)
	}
	return out, nil
}
