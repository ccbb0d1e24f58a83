package experiments

import (
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"toposense/internal/faults"
	"toposense/internal/sim"
	"toposense/internal/topology"
)

// Scenario describes one run: the WorldConfig it assembles plus the run
// around that world — the registry topology, the explain switch, the engine
// and the membership/fault schedule, in simulated seconds as the flags give
// them. It is a plain value (copy it, draw it at random; not ==-comparable,
// WorldConfig carries slices) with three behaviours: Bind ties it to
// command-line flags, Validate is the one place a run description is
// accepted or rejected, and Assemble turns an accepted one into a World.
type Scenario struct {
	WorldConfig
	Topo    string // registry topology spec, name[,key=val,...]
	Explain bool   // keep the flat controller's per-node decisions

	Shards   int // 0 = the single-threaded engine, N >= 1 = N sharded workers
	Duration float64
	Churn    float64 // mean join/leave period of every receiver; 0 = none
	FailAt   float64 // cut the first bottleneck link at this time; 0 = never
	Outage   float64 // with FailAt: time until the link is repaired
}

// DefaultScenario is the run a bare `toposim` performs: the paper's
// Topology A with two receivers per set, CBR, 1200 s on the flat plane.
func DefaultScenario() Scenario {
	return Scenario{WorldConfig: WorldConfig{Seed: 1, Traffic: CBR}, Topo: "a,rxset=2", Duration: PaperDuration.Seconds(), Outage: 60}
}

// Bind registers the run's flags on fs, each defaulting to its field's
// current value; -algo and -federate both write Plane.
func (s *Scenario) Bind(fs *flag.FlagSet) {
	plane := func(p Plane, on bool) error { // on is false for "-algo toposense", "-federate=false"
		switch {
		case on && s.Plane != PlaneFlat && s.Plane != p:
			return fmt.Errorf("%s and %s name different control planes; keep one", s.Plane.flag(), p.flag())
		case on:
			s.Plane = p
		case s.Plane == p:
			s.Plane = PlaneFlat
		}
		return nil
	}
	fs.StringVar(&s.Topo, "topo", s.Topo, "topology generator spec name[,key=val,...] resolved against the registry ("+strings.Join(topology.Names(), ", ")+"); \"list\" prints every generator and its keys")
	fs.Func("traffic", "cbr, vbr3 or vbr6 (default cbr)", func(v string) error {
		t, ok := map[string]Traffic{"cbr": CBR, "vbr3": VBR3, "vbr6": VBR6}[strings.ToLower(v)]
		if !ok {
			return fmt.Errorf("unknown traffic %q", v)
		}
		s.Traffic = t
		return nil
	})
	fs.Func("algo", "toposense or rlm (default toposense)", func(v string) error {
		v = strings.ToLower(v)
		if v != "toposense" && v != "rlm" {
			return fmt.Errorf("unknown algo %q", v)
		}
		return plane(PlaneRLM, v == "rlm")
	})
	fs.Int64Var(&s.Seed, "seed", s.Seed, "simulation seed")
	fs.BoolFunc("federate", "run the hierarchical control plane: per-domain leaf controllers under a federation parent (toposense only; needs a domain-labelled topology)", func(v string) error {
		on, err := strconv.ParseBool(v)
		if err != nil {
			return err
		}
		return plane(PlaneFederated, on)
	})
	fs.BoolVar(&s.Aggregate, "aggregate", s.Aggregate, "install the in-network feedback aggregation layer (toposense only)")
	fs.BoolVar(&s.ProbeDiscovery, "probe", s.ProbeDiscovery, "use mtrace-style probe-based topology discovery")
	fs.Func("staleness", "topology information staleness in seconds", func(v string) error {
		sec, err := strconv.ParseFloat(v, 64)
		s.Staleness = sim.FromSeconds(sec)
		return err
	})
	fs.BoolVar(&s.Explain, "explain", s.Explain, "print the algorithm's per-node decisions for the final interval (flat toposense plane only)")
	fs.IntVar(&s.Shards, "shards", s.Shards, "engine workers: 0 = single-threaded engine, N >= 1 = sharded engine with N workers")
	fs.Float64Var(&s.Duration, "duration", s.Duration, "simulated seconds")
	fs.Float64Var(&s.Churn, "churn", s.Churn, "Poisson membership churn: every receiver alternates joined/departed with this mean period in simulated seconds (0 = no churn)")
	fs.Float64Var(&s.FailAt, "failat", s.FailAt, "cut the topology's bottleneck link at this simulated second (0 = no failure)")
	fs.Float64Var(&s.Outage, "outage", s.Outage, "with -failat: seconds until the link is repaired")
}

// Validate reports the first reason the scenario cannot run, naming the
// flag to change, or nil. The table below and the plane gate are the whole
// rejection list; everything else composes (DESIGN.md §5 "Flag matrix").
func (s Scenario) Validate() error {
	gen, _, err := topology.Parse(s.Topo)
	if err != nil {
		return fmt.Errorf("-topo %q: %w", s.Topo, err)
	}
	// The two fault pairs each wait on one mechanism: tree repair rebuilds
	// routes across the whole network, which no single partition may do, and
	// a repair can re-home a receiver out of every fixed domain scope.
	for _, r := range []struct {
		bad bool
		why string
	}{
		{s.Duration <= 0, fmt.Sprintf("-duration %g: the simulated run length must be positive", s.Duration)},
		{s.Staleness < 0, fmt.Sprintf("-staleness %g: topology information cannot be younger than now (0 = fresh)", s.Staleness.Seconds())},
		{s.FailAt > 0 && s.Outage <= 0, "-outage must be positive when -failat is set"},
		{s.FailAt > 0 && s.Shards >= 1, fmt.Sprintf("-failat %g is not supported with -shards %d: fault injection needs the whole network in one partition for tree repair, "+
			"which only the single-threaded serial engine guarantees; drop -shards (or set -shards 0) to fall back to the serial engine", s.FailAt, s.Shards)},
		{s.FailAt > 0 && s.Plane.scoped(), fmt.Sprintf("-failat %g is not supported with %s: tree repair can re-home receivers across domain boundaries, "+
			"outside every scoped controller's fixed domain; drop %[2]s to fall back to the flat control plane", s.FailAt, s.Plane.flag())},
		{s.Churn < 0, fmt.Sprintf("-churn %g: the mean join/leave period must be positive (0 = no churn)", s.Churn)},
		{s.Explain && s.Plane != PlaneFlat, fmt.Sprintf("-explain reads the single flat controller, which %s does not run; drop -explain", s.Plane.flag())},
	} {
		if r.bad {
			return errors.New(r.why)
		}
	}
	return s.checkPlane(gen.Labelled)
}

// Assemble validates the scenario and builds its world, in the order that is
// part of the determinism contract (event sequence numbers are assigned at
// Schedule, the run-wide RNG is drawn at churn registration): engine,
// topology, fault schedule, AssembleWorld, the meter's observers, the explain
// switch, churn slots. The world is ready for Run; a
// scheduled outage's injector is World.Faults.
func (s Scenario) Assemble(m *Meter) (*World, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	_, topo, _ := topology.Parse(s.Topo) // Validate has vouched for it
	e := NewRunEngine(s.Seed, s.Shards)
	b, err := topology.Generate(e, topo)
	if err != nil {
		return nil, err
	}
	var inj *faults.Injector
	if s.FailAt > 0 {
		if len(b.Bottlenecks) == 0 {
			return nil, fmt.Errorf("topology %s exposes no bottleneck link to fail", s.Topo)
		}
		inj = faults.New(b.Net)
		// Both directions of the physical link; every registry family builds
		// its bottlenecks with the symmetric Connect.
		bl := b.Bottlenecks[0]
		inj.Outage(sim.FromSeconds(s.FailAt), sim.FromSeconds(s.Outage), bl, bl.Reverse())
	}
	w, err := AssembleWorld(e, b, s.WorldConfig)
	if err != nil {
		return nil, err
	}
	w.Faults = inj
	m.ObserveWorld(w)
	if s.Explain {
		w.Controller.Algorithm().EnableExplain()
	}
	if s.Churn > 0 {
		w.ChurnSlots(sim.FromSeconds(s.Churn), w.Slots())
	}
	return w, nil
}
