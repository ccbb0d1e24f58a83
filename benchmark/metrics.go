package main

// The benchmark's declared metrics. BENCHMARK.json is generated from this
// table (go test -run TestSchema -update) and TestSchema holds the two
// together, so a name printed is a name declared.

// How a metric's value is obtained.
const (
	kindExact  = "c"      // exported counter or model output read after a timed run; a pure function of (workload, seed)
	kindTimed  = "timed"  // host measurement of the timed runs; median over reps
	kindTrace  = "t"      // sampled in the traced run
	kindDrive  = "d"      // stand-alone drive of the layer's public calls, in the traced child
	kindDriver = "driver" // about the benchmark's own run
)

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median the metric may worsen by
	Kind   string
	// Moves says, for a per-layer metric, which end-to-end metric it should
	// move and on which workload; for an end-to-end metric, what it is.
	Moves string
}

// endToEnd are the metrics a user of the simulator sees. Host time and
// simulated time never mix: run_s, cpu_s and setup_s are host seconds,
// reported at the reference probe's quiet-box speed (probe.go);
// mean_fit, max_changes and ctl_bytes_per_rx are outputs of the simulated
// model over its fixed simulated duration.
var endToEnd = []metricDef{
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.20, Kind: kindTimed,
		Moves: "host wall seconds of the measured phase, RunUntil(deadline), at the reference probe's quiet-box speed"},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.20, Kind: kindTimed,
		Moves: "host user+sys CPU seconds of the measured phase (getrusage), at the probe's quiet-box speed; leaves run_s when wall time is bought with a second core or background GC"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Kind: kindTimed,
		Moves: "host seconds from the start of set-up to the end of World.Start, at the probe's quiet-box speed; median of the set-ups each rep makes"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Kind: kindTimed,
		Moves: "the child's resident-set high-water mark (VmHWM) at the end of the measured phase, less the probe's 64 MB arena"},
	{Name: "allocs_per_pkt_hop", Unit: "allocs", Better: "lower", Bound: 0.12, Kind: kindTimed,
		Moves: "heap objects allocated in the measured phase per packet-hop delivered; the denominator is fixed by the model"},
	{Name: "mean_fit", Unit: "ratio", Better: "higher", Bound: 0.12, Kind: kindExact,
		Moves: "1 - the paper's mean relative deviation from the optimal subscription, over the whole run"},
	{Name: "max_changes", Unit: "count", Better: "lower", Bound: 0.25, Kind: kindExact,
		Moves: "the paper's stability number: most subscription changes by any one receiver"},
	{Name: "ctl_bytes_per_rx", Unit: "bytes", Better: "lower", Bound: 0.02, Kind: kindExact,
		Moves: "control bytes delivered to the controller per receiver slot"},
}

const (
	allFour = "all four"
	none    = "none (prediction: no change)"
)

// perLayer are the single-layer numbers, named <module>.<metric>.
var perLayer = []metricDef{
	// sim: the event queue.
	{Name: "sim.events", Unit: "count", Better: "lower", Kind: kindExact, Moves: "run_s, cpu_s on " + allFour},
	{Name: "sim.events_per_pkt_hop", Unit: "ratio", Better: "lower", Kind: kindExact, Moves: "run_s, cpu_s on " + allFour + "; falls when link events are folded"},
	{Name: "sim.event_slot_allocs", Unit: "count", Better: "lower", Kind: kindExact, Moves: "peak_rss_mb on tree10k-flat"},
	{Name: "sim.peak_pending", Unit: "count", Better: "lower", Kind: kindTrace, Moves: "run_s on tree10k-flat (deepest heap)"},
	{Name: "sim.slice_ms_p50", Unit: "ms", Better: "lower", Kind: kindTrace, Moves: "run_s on " + allFour},
	{Name: "sim.slice_ms_max", Unit: "ms", Better: "lower", Kind: kindTrace, Moves: "run_s on tree10k-flat (controller pass slices)"},
	{Name: "sim.hold_ns_per_event", Unit: "ns", Better: "lower", Kind: kindDrive, Moves: "run_s, cpu_s on " + allFour + ", most on tree10k-flat"},

	// netsim: links and packets.
	{Name: "netsim.pkt_hops", Unit: "count", Better: "higher", Kind: kindExact, Moves: none + "; the model's fixed work"},
	{Name: "netsim.drops", Unit: "count", Better: "lower", Kind: kindExact, Moves: "mean_fit on " + allFour},
	{Name: "netsim.drop_share", Unit: "ratio", Better: "lower", Kind: kindExact, Moves: "mean_fit on " + allFour},
	{Name: "netsim.peak_queue", Unit: "count", Better: "lower", Kind: kindExact, Moves: none},
	{Name: "netsim.probe_enqueues", Unit: "count", Better: "lower", Kind: kindTrace, Moves: none + "; must equal the links' own count"},
	{Name: "netsim.probe_delivers", Unit: "count", Better: "higher", Kind: kindTrace, Moves: none},
	{Name: "netsim.unicast_ns_per_pkt_hop", Unit: "ns", Better: "lower", Kind: kindDrive, Moves: "run_s on tree10k-flat (unicast route) and tree1k-agg (link events)"},
	{Name: "netsim.unicast_events_per_pkt_hop", Unit: "ratio", Better: "lower", Kind: kindDrive, Moves: "sim.events, then run_s on " + allFour},
	{Name: "netsim.unicast_allocs_per_pkt_hop", Unit: "allocs", Better: "lower", Kind: kindDrive, Moves: "allocs_per_pkt_hop on tree10k-flat"},

	// mcast: tree state, replication, in-network aggregation.
	{Name: "mcast.grafts", Unit: "count", Better: "lower", Kind: kindExact, Moves: "run_s on tree1k-churn"},
	{Name: "mcast.prunes", Unit: "count", Better: "lower", Kind: kindExact, Moves: "run_s on tree1k-churn"},
	{Name: "mcast.table_bytes", Unit: "bytes", Better: "lower", Kind: kindExact, Moves: "peak_rss_mb on tree10k-flat"},
	{Name: "mcast.table_entries", Unit: "count", Better: "lower", Kind: kindExact, Moves: "peak_rss_mb on tree10k-flat"},
	{Name: "mcast.agg_absorbed", Unit: "count", Better: "higher", Kind: kindExact, Moves: "ctl_bytes_per_rx on tree1k-agg, tree1k-churn"},
	{Name: "mcast.agg_merged", Unit: "count", Better: "higher", Kind: kindExact, Moves: "ctl_bytes_per_rx on tree1k-agg, tree1k-churn"},
	{Name: "mcast.agg_flushes", Unit: "count", Better: "lower", Kind: kindExact, Moves: "ctl_bytes_per_rx on tree1k-agg, tree1k-churn"},
	{Name: "mcast.agg_purged", Unit: "count", Better: "lower", Kind: kindExact, Moves: "run_s on tree1k-churn"},
	{Name: "mcast.fanout_ns_per_copy", Unit: "ns", Better: "lower", Kind: kindDrive, Moves: "run_s on tree1k-agg, paperB16-vbr; includes the netsim and sim cost under replication"},
	{Name: "mcast.join_leave_us", Unit: "us", Better: "lower", Kind: kindDrive, Moves: "run_s on tree1k-churn; nothing on the three static workloads"},

	// source.
	{Name: "source.pkts_sent", Unit: "count", Better: "higher", Kind: kindExact, Moves: none + "; the model's fixed input"},
	{Name: "source.emit_ns_per_pkt_cbr", Unit: "ns", Better: "lower", Kind: kindDrive, Moves: "run_s on the three tree workloads"},
	{Name: "source.emit_ns_per_pkt_vbr", Unit: "ns", Better: "lower", Kind: kindDrive, Moves: "run_s on paperB16-vbr"},
	{Name: "source.emit_allocs_per_pkt_cbr", Unit: "allocs", Better: "lower", Kind: kindDrive, Moves: "allocs_per_pkt_hop on the three tree workloads"},
	{Name: "source.emit_allocs_per_pkt_vbr", Unit: "allocs", Better: "lower", Kind: kindDrive, Moves: "allocs_per_pkt_hop on paperB16-vbr; nothing on the CBR trees"},

	// receiver.
	{Name: "receiver.reports_sent", Unit: "count", Better: "lower", Kind: kindExact, Moves: "allocs_per_pkt_hop, run_s on tree10k-flat"},
	{Name: "receiver.suggestions_recv", Unit: "count", Better: "higher", Kind: kindExact, Moves: "mean_fit on " + allFour},
	{Name: "receiver.unilateral_drops", Unit: "count", Better: "lower", Kind: kindExact, Moves: "mean_fit, max_changes on tree10k-flat"},
	{Name: "receiver.duplicates", Unit: "count", Better: "lower", Kind: kindExact, Moves: none},
	{Name: "receiver.unreached", Unit: "count", Better: "lower", Kind: kindExact, Moves: "mean_fit on tree10k-flat: live receivers the control loop never reached"},
	{Name: "receiver.recv_ns_per_pkt", Unit: "ns", Better: "lower", Kind: kindDrive, Moves: "run_s on tree1k-agg, tree10k-flat"},

	// report: the control payloads.
	{Name: "report.fold_ns", Unit: "ns", Better: "lower", Kind: kindDrive, Moves: "run_s on tree1k-agg, only through the aggregator's share"},
	{Name: "report.merge_ns", Unit: "ns", Better: "lower", Kind: kindDrive, Moves: "run_s on tree1k-agg, only through the aggregator's share"},
	{Name: "report.ctl_pkt_allocs", Unit: "allocs", Better: "lower", Kind: kindDrive, Moves: "allocs_per_pkt_hop on tree10k-flat; nothing on paperB16-vbr"},

	// controller.
	{Name: "controller.passes", Unit: "count", Better: "lower", Kind: kindExact, Moves: none + "; fixed by the simulated duration"},
	{Name: "controller.reports_recv", Unit: "count", Better: "higher", Kind: kindExact, Moves: "mean_fit on tree10k-flat"},
	{Name: "controller.suggestions_sent", Unit: "count", Better: "lower", Kind: kindExact, Moves: "run_s on tree10k-flat"},
	{Name: "controller.aggregates_recv", Unit: "count", Better: "lower", Kind: kindExact, Moves: "ctl_bytes_per_rx on tree1k-agg, tree1k-churn"},
	{Name: "controller.batches_sent", Unit: "count", Better: "lower", Kind: kindExact, Moves: "run_s on tree1k-agg"},
	{Name: "controller.deregisters_recv", Unit: "count", Better: "higher", Kind: kindExact, Moves: "mean_fit on tree1k-churn"},
	{Name: "controller.registered_end", Unit: "count", Better: "lower", Kind: kindExact, Moves: none},
	{Name: "controller.ctl_msgs_per_pass", Unit: "count", Better: "lower", Kind: kindExact, Moves: "ctl_bytes_per_rx on the tree workloads; run_s on tree10k-flat"},
	{Name: "controller.pass_ms_mean", Unit: "ms", Better: "lower", Kind: kindTimed, Moves: "run_s on tree10k-flat; nothing on paperB16-vbr"},
	{Name: "controller.pass_ms_max", Unit: "ms", Better: "lower", Kind: kindTimed, Moves: "run_s on tree10k-flat"},
	{Name: "controller.recv_ns_per_report", Unit: "ns", Better: "lower", Kind: kindDrive, Moves: "run_s on tree10k-flat"},

	// core: the algorithm, replayed into a shadow instance.
	{Name: "core.step_ms_mean", Unit: "ms", Better: "lower", Kind: kindTrace, Moves: "controller.pass_ms_mean, then run_s on tree10k-flat; nothing on the 1k trees"},
	{Name: "core.step_ms_max", Unit: "ms", Better: "lower", Kind: kindTrace, Moves: "controller.pass_ms_max on tree10k-flat"},
	{Name: "core.step_share", Unit: "ratio", Better: "lower", Kind: kindTrace, Moves: "controller.pass_ms_mean on tree10k-flat"},
	{Name: "core.reports_per_step", Unit: "count", Better: "higher", Kind: kindTrace, Moves: "mean_fit on tree10k-flat"},
	{Name: "core.suggestions_per_step", Unit: "count", Better: "higher", Kind: kindTrace, Moves: none},

	// topodisc.
	{Name: "topodisc.discoveries", Unit: "count", Better: "lower", Kind: kindExact, Moves: "run_s on tree10k-flat"},
	{Name: "topodisc.snapshot_ms", Unit: "ms", Better: "lower", Kind: kindDrive, Moves: "controller.pass_ms_mean, run_s on tree10k-flat"},
	{Name: "topodisc.snapshot_allocs", Unit: "allocs", Better: "lower", Kind: kindDrive, Moves: "allocs_per_pkt_hop on tree10k-flat"},
	{Name: "topodisc.snapshot_nodes", Unit: "count", Better: "lower", Kind: kindDrive, Moves: none},

	// topology, experiments, churn: set-up and membership.
	{Name: "topology.generate_ms", Unit: "ms", Better: "lower", Kind: kindTimed, Moves: "setup_s, most on tree10k-flat"},
	{Name: "topology.nodes", Unit: "count", Better: "lower", Kind: kindExact, Moves: none},
	{Name: "topology.links", Unit: "count", Better: "lower", Kind: kindExact, Moves: none},
	{Name: "topology.receivers", Unit: "count", Better: "higher", Kind: kindExact, Moves: none},
	{Name: "experiments.assemble_ms", Unit: "ms", Better: "lower", Kind: kindTimed, Moves: "setup_s, most on tree10k-flat"},
	{Name: "experiments.start_ms", Unit: "ms", Better: "lower", Kind: kindTimed, Moves: "setup_s, most on tree10k-flat"},
	{Name: "churn.slots_ms", Unit: "ms", Better: "lower", Kind: kindTimed, Moves: "setup_s on tree1k-churn"},
	{Name: "churn.joins", Unit: "count", Better: "higher", Kind: kindExact, Moves: none + "; fixed by seed"},
	{Name: "churn.leaves", Unit: "count", Better: "higher", Kind: kindExact, Moves: none + "; fixed by seed"},

	// metrics: the paper's deviation as the paper states it.
	{Name: "metrics.mean_dev", Unit: "ratio", Better: "lower", Kind: kindExact, Moves: "mean_fit = 1 - this"},

	// benchmark: the driver itself.
	{Name: "benchmark.rounds", Unit: "count", Better: "higher", Kind: kindDriver, Moves: none},
	{Name: "benchmark.run_raw_s", Unit: "s", Better: "lower", Kind: kindTimed, Moves: none + "; run_s as the child measured it, before scaling to the probe's quiet-box speed"},
	{Name: "benchmark.cpu_raw_s", Unit: "s", Better: "lower", Kind: kindTimed, Moves: none + "; cpu_s as measured"},
	{Name: "benchmark.setup_raw_s", Unit: "s", Better: "lower", Kind: kindTimed, Moves: none + "; setup_s as measured"},
	{Name: "benchmark.probe_ns_per_op", Unit: "ns", Better: "lower", Kind: kindTimed, Moves: none + "; the box's speed during the rep, 262 when quiet"},
	{Name: "benchmark.gc_cycles", Unit: "count", Better: "lower", Kind: kindTimed, Moves: "cpu_s apart from run_s"},
	{Name: "benchmark.alloc_mb", Unit: "MB", Better: "lower", Kind: kindTimed, Moves: "cpu_s, peak_rss_mb"},
	{Name: "benchmark.trace_overhead", Unit: "ratio", Better: "lower", Kind: kindDriver, Moves: none + "; traced run_s over the timed median"},
}
