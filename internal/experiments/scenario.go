package experiments

import (
	"errors"
	"flag"
	"fmt"
	"strings"

	"toposense/internal/faults"
	"toposense/internal/sim"
	"toposense/internal/topology"
)

// Scenario describes one run: a point in the topology × traffic × staleness
// × control plane space the paper's evaluation sweeps, plus the engine and
// the membership/fault schedule. It is a plain value — copy it, compare it,
// draw it at random — with three behaviours: Bind ties it to command-line
// flags, Validate is the one place a run description is accepted or
// rejected, and Assemble turns an accepted one into a World. Times are in
// simulated seconds, as the flags give them.
type Scenario struct {
	Topo    string // registry topology spec, name[,key=val,...]
	Traffic Traffic
	Seed    int64

	RLM       bool // -algo rlm: uncoordinated RLM receivers, no controller
	Federate  bool // per-domain leaf controllers under a federation parent
	Aggregate bool // in-network report aggregation toward the flat controller
	Probe     bool // mtrace-style probe discovery instead of the oracle
	Staleness float64
	Explain   bool // keep the flat controller's per-node decisions

	Shards   int // 0 = the single-threaded engine, N >= 1 = N sharded workers
	Duration float64
	Churn    float64 // mean join/leave period of every receiver; 0 = none
	FailAt   float64 // cut the first bottleneck link at this time; 0 = never
	Outage   float64 // with FailAt: time until the link is repaired
}

// DefaultScenario is the run a bare `toposim` performs: the paper's
// Topology A with two receivers per set, CBR, 1200 s on the flat plane.
func DefaultScenario() Scenario {
	return Scenario{Topo: "a,rxset=2", Traffic: CBR, Seed: 1, Duration: PaperDuration.Seconds(), Outage: 60}
}

// Bind registers one flag per field on fs; each flag's default is the
// field's current value.
func (s *Scenario) Bind(fs *flag.FlagSet) {
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
		s.RLM = v == "rlm"
		return nil
	})
	fs.Int64Var(&s.Seed, "seed", s.Seed, "simulation seed")
	fs.BoolVar(&s.Federate, "federate", s.Federate, "run the hierarchical control plane: per-domain leaf controllers under a federation parent (toposense only; needs a domain-labelled topology)")
	fs.BoolVar(&s.Aggregate, "aggregate", s.Aggregate, "install the in-network feedback aggregation layer (toposense only)")
	fs.BoolVar(&s.Probe, "probe", s.Probe, "use mtrace-style probe-based topology discovery")
	fs.Float64Var(&s.Staleness, "staleness", s.Staleness, "topology information staleness in seconds")
	fs.BoolVar(&s.Explain, "explain", s.Explain, "print the algorithm's per-node decisions for the final interval (flat toposense plane only)")
	fs.IntVar(&s.Shards, "shards", s.Shards, "engine workers: 0 = single-threaded engine, N >= 1 = sharded engine with N workers")
	fs.Float64Var(&s.Duration, "duration", s.Duration, "simulated seconds")
	fs.Float64Var(&s.Churn, "churn", s.Churn, "Poisson membership churn: every receiver alternates joined/departed with this mean period in simulated seconds (0 = no churn)")
	fs.Float64Var(&s.FailAt, "failat", s.FailAt, "cut the topology's bottleneck link at this simulated second (0 = no failure)")
	fs.Float64Var(&s.Outage, "outage", s.Outage, "with -failat: seconds until the link is repaired")
}

// Validate reports the first reason the scenario cannot run, naming the
// flag to change, or nil. The table below is the whole rejection list;
// everything else composes (DESIGN.md §5 "Flag matrix").
func (s Scenario) Validate() error {
	if _, _, err := topology.Parse(s.Topo); err != nil {
		return fmt.Errorf("-topo %q: %w", s.Topo, err)
	}
	// The three model pairs, each waiting on one mechanism: tree repair
	// rebuilds routes across the whole network, which no single partition may
	// do; a repair can re-home a receiver out of every fixed leaf scope; the
	// aggregation layer routes reports toward exactly one controller node.
	for _, r := range []struct {
		bad bool
		why string
	}{
		{s.Duration <= 0, fmt.Sprintf("-duration %g: the simulated run length must be positive", s.Duration)},
		{s.Staleness < 0, fmt.Sprintf("-staleness %g: topology information cannot be younger than now (0 = fresh)", s.Staleness)},
		{s.FailAt > 0 && s.Outage <= 0, "-outage must be positive when -failat is set"},
		{s.FailAt > 0 && s.Shards >= 1, fmt.Sprintf("-failat %g is not supported with -shards %d: fault injection needs the whole network in one partition for tree repair, "+
			"which only the single-threaded serial engine guarantees; drop -shards (or set -shards 0) to fall back to the serial engine", s.FailAt, s.Shards)},
		{s.FailAt > 0 && s.Federate, fmt.Sprintf("-failat %g is not supported with -federate: tree repair can re-home receivers across domain boundaries, "+
			"outside every federated leaf controller's fixed scope; drop -federate to fall back to the flat control plane", s.FailAt)},
		{s.Churn < 0, fmt.Sprintf("-churn %g: the mean join/leave period must be positive (0 = no churn)", s.Churn)},
		{s.Federate && s.Aggregate, "-federate is not supported with -aggregate: the in-network aggregation layer serves a single flat controller node, " +
			"and the federated plane already folds reports per domain at its leaf controllers; " +
			"drop -aggregate to run the hierarchical control plane, or drop -federate to keep flat-controller aggregation"},
		{s.Aggregate && s.RLM, "-aggregate: the aggregation layer serves the toposense controller; it has no meaning under -algo rlm"},
		{s.Federate && s.RLM, "-federate: the hierarchical control plane federates toposense controllers; it has no meaning under -algo rlm"},
		{s.Explain && (s.Federate || s.RLM), "-explain reads the single flat controller, which neither -federate nor -algo rlm runs; drop it"},
	} {
		if r.bad {
			return errors.New(r.why)
		}
	}
	return nil
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
	cfg := WorldConfig{Seed: s.Seed, Traffic: s.Traffic, Aggregate: s.Aggregate,
		Staleness: sim.FromSeconds(s.Staleness), ProbeDiscovery: s.Probe}
	switch {
	case s.RLM:
		cfg.Plane = PlaneRLM
	case s.Federate:
		cfg.Plane = PlaneFederated
	}
	w, err := AssembleWorld(e, b, cfg)
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
