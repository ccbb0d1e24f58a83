package obs

import (
	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// Capacities of the bounded recorders: the flight recorder's event ring and
// the number of controller passes the audit log retains.
const (
	DefaultFlightRecorder = 4096
	DefaultAuditPasses    = 256
)

// Obs bundles one simulation's observability state: the instrument
// registry, the flight recorder, the audit log, and the pre-registered
// instruments the core pipeline updates. Components hold the typed
// pointers directly — no registry lookup ever happens on a hot path — and
// every instrument is nil-safe, so a component wired with a nil *Obs pays
// exactly one pointer comparison. A count a component already keeps (tree
// grafts, controller passes, aggregation and federation stats) has no
// instrument here: whoever wires the bundle registers it with
// Registry.CounterFunc, and the registry reads it at Dump.
type Obs struct {
	Reg   *Registry
	Rec   *Recorder
	Audit *Audit

	// Controller passes (internal/controller). PassEvents observes the
	// engine-events distance between consecutive passes; FanIn the control
	// messages the controller consumed per pass — the fan-in the in-network
	// aggregation layer collapses from O(receivers) to O(branching).
	// ReportCoverage observes, per pass, the fraction of registered receivers
	// heard from since the previous pass (the rest are steered on stale
	// numbers).
	PassEvents     *Histogram
	FanIn          *Histogram
	ReportCoverage *Histogram

	// DeparturePrune observes the departure-to-prune latency in
	// milliseconds: the last member leaving a last-hop router to the prune
	// landing at its parent (leave latency + one link delay, typically).
	DeparturePrune *Histogram

	// FedBudgetLevel observes the budget levels the federation parent's
	// reconcile loop pushed down to its leaves (internal/federation).
	FedBudgetLevel *Histogram

	// Packet plane (via the NetProbe).
	Enqueues     *Counter
	Delivers     *Counter
	DropsQueue   *Counter // drop-policy discards (queue overflow / priority victim)
	DropsDown    *Counter // losses to failed links
	DropsData    *Counter // dropped media packets
	DropsControl *Counter // dropped control packets
	QueueDepth   *Histogram
	LinkLatency  *Histogram // per-link queuing+serialization+propagation, in milliseconds

	engines []EngineSource
	// net is the partitioned network Partition split the bundle for; nil
	// while there is one execution context.
	net *netsim.Network
}

// EngineSource is anything whose scheduler statistics a Dump can snapshot
// — both sim.Engine and sim.ShardedEngine satisfy it.
type EngineSource interface {
	Stats() sim.EngineStats
}

// New builds an Obs with every core instrument registered and both bounded
// recorders at their default capacities. A test that wants a smaller ring,
// or none, assigns Rec or Audit itself.
func New() *Obs {
	o := &Obs{
		Reg:   NewRegistry(),
		Rec:   NewRecorder(DefaultFlightRecorder),
		Audit: NewAudit(DefaultAuditPasses),
	}

	o.PassEvents = o.Reg.Histogram("controller_pass_events",
		[]float64{100, 300, 1000, 3000, 10000, 30000, 100000, 300000})
	o.FanIn = o.Reg.Histogram("controller_fanin",
		[]float64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000})
	o.ReportCoverage = o.Reg.Histogram("controller_report_coverage",
		[]float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1})
	o.DeparturePrune = o.Reg.Histogram("churn_departure_prune_ms",
		[]float64{100, 250, 500, 1000, 1500, 2000, 3000, 5000})
	o.FedBudgetLevel = o.Reg.Histogram("federation_budget_level",
		[]float64{1, 2, 3, 4, 5, 6, 8, 12, 15})

	o.Enqueues = o.Reg.Counter("link_enqueues")
	o.Delivers = o.Reg.Counter("link_delivers")
	o.DropsQueue = o.Reg.Counter("link_drops_queue")
	o.DropsDown = o.Reg.Counter("link_drops_down")
	o.DropsData = o.Reg.Counter("link_drops_data")
	o.DropsControl = o.Reg.Counter("link_drops_control")
	o.QueueDepth = o.Reg.Histogram("link_queue_depth",
		[]float64{0, 1, 2, 4, 8, 12, 16, 20, 32, 64})
	o.LinkLatency = o.Reg.Histogram("link_latency_ms",
		[]float64{1, 5, 10, 25, 50, 100, 200, 300, 500, 1000, 2000})
	return o
}

// ObserveEngine registers a simulation engine whose scheduler stats are
// snapshotted into every Dump.
func (o *Obs) ObserveEngine(e EngineSource) {
	if o == nil || e == nil {
		return
	}
	o.engines = append(o.engines, e)
}

// Partition splits the bundle's order-sensitive state by execution context
// for a run on net's shards: the flight recorder into one ring per context,
// every histogram's sum into one partial per context. Context 0 is the
// global (stop-the-world) context and shard s is context s+1. A sharded
// run's export is then the same bytes however the shards' workers
// interleaved, and so across runs and worker counts. On a network that is
// not partitioned it does nothing, and the export is the unsplit one. Call
// it after net.Partition and before the run.
func (o *Obs) Partition(net *netsim.Network) {
	if o == nil || !net.Partitioned() {
		return
	}
	shards := 0
	for _, n := range net.Nodes() {
		shards = max(shards, net.ShardOf(n.ID)+1)
	}
	o.net = net
	o.Rec.split(1 + shards)
	o.Reg.split(1 + shards)
}

// Context returns the execution context that runs node id's events, for
// RecordIn and ObserveIn: its shard's on a partitioned bundle, 0 otherwise.
func (o *Obs) Context(id netsim.NodeID) int {
	if o == nil || o.net == nil {
		return 0
	}
	return 1 + o.net.ShardOf(id)
}
