// Package experiments contains the benchmark harness that regenerates every
// figure of the paper's evaluation (Section IV): stability on Topologies A
// and B (Figures 6 and 7), inter-session fairness (Figure 8), the
// subscription/loss trace with four competing sessions (Figure 9), the
// impact of stale topology information (Figure 10), and an RLM-baseline
// comparison. Each runner assembles a full simulated world — network,
// multicast domain, layered sources, receivers, topology-discovery tool and
// controller — runs it for the configured duration, and reduces receiver
// traces to the numbers the paper plots.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"toposense/internal/churn"
	"toposense/internal/controller"
	"toposense/internal/core"
	"toposense/internal/faults"
	"toposense/internal/federation"
	"toposense/internal/mcast"
	"toposense/internal/metrics"
	"toposense/internal/netsim"
	"toposense/internal/obs"
	"toposense/internal/receiver"
	"toposense/internal/rlm"
	"toposense/internal/sim"
	"toposense/internal/source"
	"toposense/internal/topodisc"
	"toposense/internal/topology"
)

// Traffic names a source model used across the experiments.
type Traffic struct {
	Name       string
	PeakToMean float64 // 0 or 1 = CBR
}

// The paper's three traffic models.
var (
	CBR  = Traffic{Name: "CBR", PeakToMean: 0}
	VBR3 = Traffic{Name: "VBR(P=3)", PeakToMean: 3}
	VBR6 = Traffic{Name: "VBR(P=6)", PeakToMean: 6}
)

// AllTraffic is the sweep used by Figures 6-8.
var AllTraffic = []Traffic{CBR, VBR3, VBR6}

// Duration of every paper run.
const PaperDuration = 1200 * sim.Second

// Plane selects a world's control plane: who, if anyone, tells receivers
// what to subscribe to.
type Plane int

const (
	// PlaneFlat is one controller at Build.Controller seeing every
	// receiver — the set-up of the paper's evaluation.
	PlaneFlat Plane = iota
	// PlanePerDomain is one scoped controller per receiver-holding domain,
	// each unaware of the others — the paper's Figure 3.
	PlanePerDomain
	// PlaneFederated is PlanePerDomain's controllers as federation leaves
	// under a budget-reconciling parent at Build.Controller.
	PlaneFederated
	// PlaneRLM has no controller: every receiver runs uncoordinated
	// RLM-style join experiments, the baseline the paper contrasts with.
	PlaneRLM
)

func (p Plane) String() string {
	return [...]string{"flat", "per-domain", "federated", "rlm"}[p]
}

// scoped reports whether p runs one controller per domain.
func (p Plane) scoped() bool { return p == PlanePerDomain || p == PlaneFederated }

// flag names the command-line choice that selects p, for error messages.
func (p Plane) flag() string {
	return [...]string{"the flat control plane", "the per-domain control plane", "-federate", "-algo rlm"}[p]
}

// checkPlane is the one gate on the control plane, run by Scenario.Validate
// before any engine exists and by AssembleWorld on the built topology.
func (c WorldConfig) checkPlane(labelled bool) error {
	switch {
	case c.Aggregate && c.Plane != PlaneFlat:
		return fmt.Errorf("-aggregate serves a single flat toposense controller, which %s does not run; drop -aggregate or %[1]s", c.Plane.flag())
	case c.Plane.scoped() && !labelled:
		var names []string
		for _, g := range topology.Generators() {
			if g.Labelled {
				names = append(names, g.Name)
			}
		}
		return fmt.Errorf("%s needs a -topo family that emits domain labels, one of %v", c.Plane.flag(), names)
	}
	return nil
}

// Member is one live incarnation of a receiver slot: a *receiver.Receiver
// under a controller plane, an *rlm.Receiver under PlaneRLM.
type Member interface {
	Level() int
	Start()
	Stop()
}

// Slot names one receiver position: an index into Build.Receivers.
type Slot struct{ Session, Index int }

// World is an assembled simulation.
type World struct {
	Engine  sim.Runner
	Net     *netsim.Network
	Domain  *mcast.Domain
	Build   *topology.Build
	Sources []*source.Source
	// Receivers holds each slot's initial incarnation, [session][i]; nil
	// under PlaneRLM. Under ChurnSlots read the current one through Live.
	Receivers [][]*receiver.Receiver
	Traces    [][]*metrics.Trace // parallel to Build.Receivers
	Optimal   [][]int            // parallel to Build.Receivers
	// Controllers lists every controller agent — one on the flat plane, one
	// per receiver-holding domain (ascending label, parallel to Scopes and
	// Leaves) on a scoped plane, none under PlaneRLM.
	Controllers []*controller.Controller
	Scopes      []int // domain label of each scoped controller; nil when flat
	// Controller and Tool are the flat plane's single agent and its
	// discovery tool; nil on every other plane.
	Controller *controller.Controller
	Tool       *topodisc.Tool
	Aggregator *mcast.Aggregator  // non-nil when WorldConfig.Aggregate is set
	Parent     *federation.Parent // PlaneFederated only
	Leaves     []*federation.Leaf // PlaneFederated only
	Churn      *churn.Driver      // nil until ChurnSlots
	Faults     *faults.Injector   // nil unless Scenario.Assemble scheduled an outage

	cfg       WorldConfig           // as given, with Alg resolved
	layers    int                   // layer count: len(cfg.Rates), else source.DefaultLayers
	sessions  []int                 // every session id, shared by the discovery tools
	agentNode map[int]netsim.NodeID // domain label -> its controller's node; nil when flat
	live      [][]Member            // current incarnation per slot; nil while departed
	started   bool
}

// WorldConfig carries the knobs shared by all experiments.
type WorldConfig struct {
	Seed    int64
	Traffic Traffic
	// Plane selects the control plane; the zero value is the flat one.
	Plane     Plane
	Staleness sim.Time
	// Rates overrides the default doubling layer rates (granularity
	// extension experiments); determines the layer count when set.
	Rates []float64
	// LeaveLatency overrides the multicast group-leave latency; 0 keeps
	// mcast.DefaultLeaveLatency.
	LeaveLatency sim.Time
	// ProbeDiscovery switches topology discovery to the mtrace-style
	// hop-by-hop probe mode instead of the instantaneous oracle.
	ProbeDiscovery bool
	// Aggregate installs the in-network feedback aggregation layer: tree
	// nodes fold upward loss reports into per-subtree report.Aggregates and
	// the controller fans suggestions out as batched per-next-hop packets.
	// Off (the default) the control plane is byte-identical to the flat
	// report path. The layer routes toward exactly one controller node, so
	// it needs PlaneFlat.
	Aggregate bool
	// Algorithm overrides; zero values take core defaults.
	Alg core.Config
}

// AssembleWorld assembles a world on a built topology: one source per
// session at Build.Sources[i], the configured control plane, and one
// receiver per entry of Build.Receivers. It rejects what the plane gate
// rejects — aggregation on anything but the flat plane, a scoped plane on a
// build without domain labels.
//
// Construction order is part of the determinism contract (event sequence
// numbers are assigned as events are scheduled, agents deliver in attach
// order): sources, then per controller its discovery tool, algorithm RNG
// (Seed+1, per-domain Seed+1+label) and agent, then receivers, then the
// aggregator.
//
// When e is a ShardedEngine the network is partitioned across e's shards
// before any component is wired, so every subsequently created timer lands
// on its owning shard. Builds without generator-emitted domain labels
// (Topology A/B, mesh) fall back to the min-cut heuristic; if that finds
// no usable cut either, the sharded engine degenerates to one partition —
// same results, no parallelism.
func AssembleWorld(e sim.Runner, b *topology.Build, cfg WorldConfig) (*World, error) {
	if err := cfg.checkPlane(b.Domains != nil); err != nil {
		return nil, err
	}
	if se, ok := e.(*sim.ShardedEngine); ok {
		doms := b.Domains
		if doms == nil {
			doms = b.FallbackDomains()
		}
		b.Net.Partition(se, doms)
	}
	layers := source.DefaultLayers
	if len(cfg.Rates) > 0 {
		layers = len(cfg.Rates)
	}
	if cfg.Alg.LayerRates == nil {
		if len(cfg.Rates) > 0 {
			cfg.Alg.LayerRates = append([]float64(nil), cfg.Rates...)
		} else {
			cfg.Alg.LayerRates = source.Rates(layers)
		}
	}
	cfg.Alg.Normalize()
	d := mcast.NewDomain(b.Net)
	if cfg.LeaveLatency != 0 {
		d.LeaveLatency = cfg.LeaveLatency
	}

	w := &World{Engine: e, Net: b.Net, Domain: d, Build: b, Optimal: b.Optimal,
		cfg: cfg, layers: layers, sessions: make([]int, len(b.Sources))}
	for i, srcNode := range b.Sources {
		w.sessions[i] = i
		w.Sources = append(w.Sources, source.New(b.Net, d, srcNode, source.Config{
			Session:    i,
			Layers:     layers,
			PeakToMean: cfg.Traffic.PeakToMean,
			Rates:      cfg.Rates,
		}))
	}

	switch {
	case cfg.Plane.scoped():
		w.scopedControllers()
	case cfg.Plane == PlaneFlat:
		w.Controller, w.Tool = w.newController(b.Controller, nil, 0)
		w.Controllers = []*controller.Controller{w.Controller}
	}

	w.slots()
	for s, nodes := range b.Receivers {
		for i := range nodes {
			w.join(s, i)
		}
	}
	if cfg.Aggregate {
		// Installed after the receivers so each node's delivery order is
		// receiver-then-aggregator; the aggregator's deferred batch release
		// makes either order safe.
		w.Aggregator = mcast.NewAggregator(b.Net, b.Controller.ID, 0)
		w.Controller.EnableAggregation()
	}
	return w, nil
}

// slots makes the per-slot tables — traces, live incarnations and, on a
// controller plane, initial receivers — one block each, every session's
// row an exact share of it: the slots live as long as the world.
func (w *World) slots() {
	total := 0
	for _, nodes := range w.Build.Receivers {
		total += len(nodes)
	}
	sessions := len(w.Build.Receivers)
	traces, tracePtrs := metrics.NewTraces(total, 0, 0), make([]*metrics.Trace, total)
	for i := range traces {
		tracePtrs[i] = &traces[i]
	}
	live := make([]Member, total)
	var rxs []*receiver.Receiver
	w.Traces, w.live = make([][]*metrics.Trace, sessions), make([][]Member, sessions)
	if w.cfg.Plane != PlaneRLM {
		rxs, w.Receivers = make([]*receiver.Receiver, total), make([][]*receiver.Receiver, sessions)
	}
	k := 0
	for s, nodes := range w.Build.Receivers {
		end := k + len(nodes)
		w.Traces[s], w.live[s] = tracePtrs[k:end:end], live[k:end:end]
		if rxs != nil {
			w.Receivers[s] = rxs[k:end:end]
		}
		k = end
	}
}

// NewWorld is AssembleWorld for configurations known to be valid; it panics
// on the ones AssembleWorld rejects. It stays exported only for the
// repository benchmark (benchmark/assemble.go), which builds its worlds
// through it; everything else assembles through Scenario.Assemble.
func NewWorld(e sim.Runner, b *topology.Build, cfg WorldConfig) *World {
	w, err := AssembleWorld(e, b, cfg)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return w
}

// newController builds the controller agent for one scope — a domain's
// node set, or nil for the whole network — stationed at node `at`, with its
// own discovery tool and an algorithm RNG stream derived from the run seed
// and the domain label.
func (w *World) newController(at *netsim.Node, scope map[netsim.NodeID]bool, dom int) (*controller.Controller, *topodisc.Tool) {
	cfg := w.cfg
	tool := topodisc.NewTool(w.Net, w.Domain, w.sessions)
	tool.Scope = scope
	tool.Staleness = cfg.Staleness
	tool.ProbeMode = cfg.ProbeDiscovery
	alg := core.New(cfg.Alg, rand.New(rand.NewSource(cfg.Seed+1+int64(dom))))
	ctrl := controller.New(w.Net, w.Domain, at, tool, alg)
	// The paper's staleness experiments age both halves of the
	// controller's input: the discovered topology and the loss reports.
	ctrl.Staleness = cfg.Staleness
	return ctrl, tool
}

// scopedControllers builds one controller per domain that holds receivers,
// each seeing only its own domain's nodes and stationed at the domain's top
// node — the lowest node id carrying the label, which is the domain's
// ingress since generators emit parents before children. Under
// PlaneFederated each becomes a federation leaf of a parent at
// Build.Controller that budgets it against its border bandwidth.
func (w *World) scopedControllers() {
	b, cfg := w.Build, w.cfg
	nodeSet := make(map[int]map[netsim.NodeID]bool)
	w.agentNode = make(map[int]netsim.NodeID)
	for id, dom := range b.Domains {
		nid := netsim.NodeID(id)
		if nodeSet[dom] == nil {
			nodeSet[dom] = make(map[netsim.NodeID]bool)
			w.agentNode[dom] = nid
		}
		nodeSet[dom][nid] = true
		if nid < w.agentNode[dom] {
			w.agentNode[dom] = nid
		}
	}
	// Domain 0 holds the backbone; any receivers there are controlled from
	// Build.Controller (co-resident with the federation parent).
	w.agentNode[0] = b.Controller.ID
	held := make(map[int]bool)
	for _, nodes := range b.Receivers {
		for _, node := range nodes {
			held[b.Domains[node.ID]] = true
		}
	}
	for dom := range held {
		w.Scopes = append(w.Scopes, dom)
	}
	sort.Ints(w.Scopes)

	if cfg.Plane == PlaneFederated {
		w.Parent = federation.NewParent(b.Net, b.Controller, cfg.Alg.LayerRates, cfg.Alg.Interval)
	}
	for _, dom := range w.Scopes {
		at := w.agentNode[dom]
		ctrl, _ := w.newController(b.Net.Node(at), nodeSet[dom], dom)
		w.Controllers = append(w.Controllers, ctrl)
		if w.Parent != nil {
			w.Leaves = append(w.Leaves, federation.NewLeaf(ctrl, dom, b.Controller.ID))
			w.Parent.AddDomain(federation.DomainConfig{
				Domain:          dom,
				Leaf:            at,
				BorderBandwidth: borderBandwidth(b, dom),
			})
		}
	}
}

// borderBandwidth returns the tightest link capacity crossing from outside
// into domain dom — the border the parent budgets against. 0 (uncapped)
// when the domain has no inbound border link (domain 0, the backbone).
func borderBandwidth(b *topology.Build, dom int) float64 {
	if dom == 0 {
		return 0
	}
	best := 0.0
	for _, l := range b.Net.Links() {
		if b.Domains[l.To] == dom && b.Domains[l.From] != dom {
			if best == 0 || l.Bandwidth() < best {
				best = l.Bandwidth()
			}
		}
	}
	return best
}

// join brings slot (s, i) to life as a fresh incarnation that feeds the
// slot's trace and — under a controller plane — registers with the slot's
// own controller: Build.Controller when flat, its domain's agent when
// scoped. The initial population and every churn rejoin come through here.
func (w *World) join(s, i int) {
	node, tr := w.Build.Receivers[s][i], w.Traces[s][i]
	var m Member
	if w.cfg.Plane == PlaneRLM {
		rx := rlm.New(w.Net, w.Domain, node, rlm.Config{Session: s, MaxLayers: w.layers})
		rx.OnChange = func(c rlm.Change) { tr.Set(c.At, c.To) }
		m = rx
	} else {
		at := w.Build.Controller.ID
		if w.agentNode != nil {
			at = w.agentNode[w.Build.Domains[node.ID]]
		}
		rx := receiver.New(w.Net, w.Domain, node, receiver.Config{
			Session:      s,
			MaxLayers:    w.layers,
			InitialLevel: 1,
			Controller:   at,
		})
		rx.OnChange = func(c receiver.Change) { tr.Set(c.At, c.To) }
		if !w.started {
			w.Receivers[s][i] = rx
		}
		m = rx
	}
	w.live[s][i] = m
	if w.started {
		m.Start()
	}
}

// leave departs slot (s, i)'s live incarnation: the full lifecycle for a
// TopoSense receiver (leave every layer group, Deregister with its
// controller), a silent Stop under RLM, which has no control plane to
// notify.
func (w *World) leave(s, i int) {
	switch m := w.live[s][i].(type) {
	case *receiver.Receiver:
		m.Depart()
	case *rlm.Receiver:
		m.Stop()
	}
	w.live[s][i] = nil
}

// Live returns slot (s, i)'s current incarnation, nil while it is departed.
func (w *World) Live(s, i int) Member { return w.live[s][i] }

// Level returns slot (s, i)'s current subscription level, 0 while departed.
func (w *World) Level(s, i int) int {
	if m := w.live[s][i]; m != nil {
		return m.Level()
	}
	return 0
}

// Slots lists every receiver slot, session-major.
func (w *World) Slots() []Slot {
	var out []Slot
	for s := range w.live {
		for i := range w.live[s] {
			out = append(out, Slot{s, i})
		}
	}
	return out
}

// ChurnSlots puts the given slots under Poisson membership churn: each
// alternates between joined and departed with the given mean period, a
// departure being leave and a rejoin a fresh join incarnation. Call before
// Start — registration draws each slot's first dwell from the run-wide RNG,
// in the order given.
func (w *World) ChurnSlots(period sim.Time, slots []Slot) *churn.Driver {
	if w.Churn == nil {
		w.Churn = churn.New(w.Net)
	}
	for _, sl := range slots {
		s, i := sl.Session, sl.Index
		w.Churn.Slot(0, period, period, func() { w.join(s, i) }, func() { w.leave(s, i) })
	}
	return w.Churn
}

// CrossDomainRegs counts the receivers scoped controller k currently has
// registered from outside its own domain — zero by construction, since join
// registers every incarnation with its own domain's agent.
func (w *World) CrossDomainRegs(k int) int {
	n := 0
	for _, r := range w.Controllers[k].RegisteredReceivers() {
		if w.Build.Domains[r.Node] != w.Scopes[k] {
			n++
		}
	}
	return n
}

// WireObs attaches an observability bundle to every component of the
// world, split by execution context on a sharded world (Obs.Partition): a
// packet-plane probe on all links, the multicast domain's tree
// events, every controller's pass audit, the federation parent's budget
// levels and the engine's scheduler stats. The counts the components
// already keep are registered as CounterFuncs that read the world when the
// bundle dumps — the churn driver included, which ChurnSlots may create
// after this call. A nil bundle is a no-op — the world then runs the exact
// pre-obs hot path, with no probe installed at all. Call before Start, and
// give each world its own bundle: wiring a second world to one bundle
// registers its counts twice, which panics.
func (w *World) WireObs(o *obs.Obs) {
	if o == nil {
		return
	}
	o.Partition(w.Net)
	w.Net.AttachProbe(obs.NewNetProbe(o))
	w.Domain.SetObs(o)
	for _, c := range w.Controllers {
		c.SetObs(o)
	}
	if w.Parent != nil {
		w.Parent.SetObs(o)
	}
	o.ObserveEngine(w.Engine)

	ctl := func(count func(*controller.Controller) int64) func() int64 {
		return func() (n int64) {
			for _, c := range w.Controllers {
				n += count(c)
			}
			return n
		}
	}
	for _, c := range []struct {
		name string
		read func() int64
	}{
		{"mcast_grafts", func() int64 { return w.Domain.Grafts }},
		{"mcast_prunes", func() int64 { return w.Domain.Prunes }},
		{"mcast_repairs", func() int64 { return w.Domain.Repairs }},
		{"controller_passes", ctl(func(c *controller.Controller) int64 { return c.StepsRun })},
		{"federation_capped_suggestions", ctl(func(c *controller.Controller) int64 { return c.SuggestionsCapped })},
		{"agg_reports_absorbed", orZero(&w.Aggregator, func(a *mcast.Aggregator) int64 { return a.Absorbed })},
		{"agg_merges", orZero(&w.Aggregator, func(a *mcast.Aggregator) int64 { return a.Merged })},
		{"agg_flushes", orZero(&w.Aggregator, func(a *mcast.Aggregator) int64 { return a.Flushes })},
		{"agg_batches", orZero(&w.Aggregator, func(a *mcast.Aggregator) int64 { return a.Batches })},
		{"churn_joins", orZero(&w.Churn, func(d *churn.Driver) int64 { return d.Joins })},
		{"churn_leaves", orZero(&w.Churn, func(d *churn.Driver) int64 { return d.Leaves })},
		{"federation_exports", orZero(&w.Parent, func(p *federation.Parent) int64 { return p.ExportsRecv })},
		{"federation_reconciles", orZero(&w.Parent, func(p *federation.Parent) int64 { return p.Reconciles })},
		{"federation_budget_churn", orZero(&w.Parent, func(p *federation.Parent) int64 { return p.BudgetChanges })},
	} {
		o.Reg.CounterFunc(c.name, c.read)
	}
}

// orZero reads count from the component *p holds when called, and 0 while
// it holds none.
func orZero[T any](p **T, count func(*T) int64) func() int64 {
	return func() int64 {
		if *p == nil {
			return 0
		}
		return count(*p)
	}
}

// Start launches sources, controllers, the federation parent and receivers,
// in that order (part of the determinism contract: receivers draw their
// report-timer offsets from the run-wide RNG as they start).
func (w *World) Start() {
	if w.started {
		return
	}
	w.started = true
	for _, s := range w.Sources {
		s.Start()
	}
	for _, c := range w.Controllers {
		c.Start()
	}
	if w.Parent != nil {
		w.Parent.Start()
	}
	for _, ms := range w.live {
		for _, m := range ms {
			m.Start()
		}
	}
}

// Shutdown stops every component and drains the aggregation layer's pooled
// payloads back to their pools. After Shutdown the world holds no pooled
// Aggregate or SuggestionBatch — in a drop-free run the process-wide
// report.AggregatesLive/BatchesLive counters return to their pre-world
// values, which is exactly what the pool-balance regression test asserts.
func (w *World) Shutdown() {
	for _, s := range w.Sources {
		s.Stop()
	}
	for _, c := range w.Controllers {
		c.Stop()
	}
	if w.Parent != nil {
		w.Parent.Stop()
	}
	if w.Churn != nil {
		w.Churn.Stop()
	}
	for _, ms := range w.live {
		for _, m := range ms {
			if m != nil {
				m.Stop()
			}
		}
	}
	w.Aggregator.Stop()
}

// Run starts the world (if needed) and advances to the given time.
func (w *World) Run(until sim.Time) {
	w.Start()
	w.Engine.RunUntil(until)
}

// AllTraces flattens traces with their optima, session-major.
func (w *World) AllTraces() (traces []*metrics.Trace, optima []int) {
	for s := range w.Traces {
		traces = append(traces, w.Traces[s]...)
		optima = append(optima, w.Optimal[s]...)
	}
	return traces, optima
}

// NewRunEngine builds the engine a run executes on. shards <= 0 is the
// default single-threaded engine. shards >= 1 selects the sharded
// execution model with that many workers — the worker count is purely
// physical: the logical partitioning comes from the topology's domain
// labels, so any two worker counts (including 1) produce byte-identical
// results. Against the single-threaded engine the sharded model executes
// the same events with the same clocks and RNG stream; the one defined
// difference is the serialization of same-timestamp events that meet at a
// partition boundary (partition order instead of schedule-call order). On
// the golden sweeps that changes no output: the sharded golden tests
// compare against the serial goldens.
func NewRunEngine(seed int64, shards int) sim.Runner {
	if shards >= 1 {
		return sim.NewShardedEngine(seed, shards)
	}
	return sim.NewEngine(seed)
}
