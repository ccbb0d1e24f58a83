package main

// Layer drives: stand-alone timings of one layer's public calls, run in the
// traced child after its measured phase. Each drive's result is a `d`
// metric. A drive measures the layer together with whatever it calls into
// (mcast fan-out includes the netsim links and the sim queue under it);
// the README says so per metric.

import (
	"math/rand"
	"runtime"

	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/receiver"
	"toposense/internal/report"
	"toposense/internal/sim"
	"toposense/internal/source"
	"toposense/internal/topology"
)

// measure runs fn under a span and returns its host nanoseconds and the
// heap objects it allocated.
func measure(rec *spanRec, parent int, name string, fn func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := rec.timed(name, parent, func(int) { fn() })
	runtime.ReadMemStats(&m1)
	return float64(d), float64(m1.Mallocs - m0.Mallocs)
}

// driveWorld runs the drives that need a built world, on the quiesced
// traced world, which is discarded afterwards.
func driveWorld(sc *scenario, rec *spanRec, parent int, out map[string]float64) {
	w := sc.world

	const snapRounds = 10
	sessions := w.Tool.Sessions()
	nodes := 0
	ns, allocs := measure(rec, parent, "drive.topodisc", func() {
		for r := 0; r < snapRounds; r++ {
			for _, s := range sessions {
				nodes += len(w.Tool.SnapshotNow(s).Nodes())
			}
		}
	})
	snaps := float64(snapRounds * len(sessions))
	out["topodisc.snapshot_ms"] = ns / 1e6 / snaps
	out["topodisc.snapshot_allocs"] = allocs / snaps
	out["topodisc.snapshot_nodes"] = float64(nodes) / snaps

	// One synthetic loss report per receiver slot, delivered straight to
	// the controller agent as its node would hand it over.
	now := sc.engine.Now()
	ctrl := sc.build.Controller.ID
	var pkts []*netsim.Packet
	for s, rxs := range sc.build.Receivers {
		for _, n := range rxs {
			pkts = append(pkts, report.NewControlPacket(n.ID, ctrl, report.LossReportSize, now, report.LossReport{
				Node: n.ID, Session: s, Level: 1, LossRate: 0.01, Bytes: 4000, Interval: sim.Second, Sent: now,
			}))
		}
	}
	rounds := 200000/len(pkts) + 1
	ns, _ = measure(rec, parent, "drive.controller", func() {
		for r := 0; r < rounds; r++ {
			for _, p := range pkts {
				w.Controller.Recv(p)
			}
		}
	})
	out["controller.recv_ns_per_report"] = ns / float64(rounds*len(pkts))
}

// driveLayers runs the stand-alone drives on fresh engines.
func driveLayers(wl workload, seed int64, peakPending int, rec *spanRec, parent int, out map[string]float64) {
	driveSimHold(peakPending, rec, parent, out)
	driveUnicastChain(rec, parent, out)
	driveFanout(wl, seed, rec, parent, out)
	driveJoinLeave(wl, seed, rec, parent, out)
	driveSource(rec, parent, out)
	driveReceiver(rec, parent, out)
	driveReport(rec, parent, out)
}

// driveSimHold is the classic hold model on a fresh engine: a standing
// population of events — as many as the workload's own peak — each of
// which re-schedules itself an exponential delay ahead when it fires.
func driveSimHold(population int, rec *spanRec, parent int, out map[string]float64) {
	const total = 2_000_000
	if population < 1 {
		population = 1
	}
	rng := rand.New(rand.NewSource(1))
	var delays [4096]sim.Time
	for i := range delays {
		delays[i] = sim.Time(rng.ExpFloat64()*float64(sim.Second)) + 1
	}
	e := sim.NewEngine(1)
	fired := 0
	var fire func()
	fire = func() {
		fired++
		if fired < total {
			e.Schedule(delays[fired&4095], fire)
		}
	}
	for i := 0; i < population; i++ {
		e.Schedule(delays[i&4095], fire)
	}
	ns, _ := measure(rec, parent, "drive.sim", e.Run)
	out["sim.hold_ns_per_event"] = ns / float64(e.Fired())
}

// driveUnicastChain sends unicast packets down an 8-hop chain of fast
// links: NewPacket, SendUnicast, drain.
func driveUnicastChain(rec *spanRec, parent int, out map[string]float64) {
	const hops, bursts, burst = 8, 10000, 8
	e := sim.NewEngine(1)
	net := netsim.New(e)
	nodes := make([]*netsim.Node, hops+1)
	for i := range nodes {
		nodes[i] = net.AddNode("chain")
		if i > 0 {
			net.Connect(nodes[i-1], nodes[i], netsim.LinkConfig{Bandwidth: 1e9, Delay: sim.Millisecond})
		}
	}
	send := func(n int) {
		for b := 0; b < n; b++ {
			for k := 0; k < burst; k++ {
				p := net.NewPacket()
				p.Kind = netsim.Control
				p.Src, p.Dst, p.Group = nodes[0].ID, nodes[hops].ID, netsim.NoGroup
				p.Size = 100
				nodes[0].SendUnicast(p)
				p.Release()
			}
			e.Run()
		}
	}
	send(1) // computes the route tables and fills the packet pool
	delivered := func() (n int64) {
		for _, l := range net.Links() {
			n += l.Stats().Delivered
		}
		return n
	}
	h0, f0 := delivered(), e.Fired()
	ns, allocs := measure(rec, parent, "drive.netsim", func() { send(bursts) })
	pktHops := float64(delivered() - h0)
	out["netsim.unicast_ns_per_pkt_hop"] = ns / pktHops
	out["netsim.unicast_events_per_pkt_hop"] = float64(e.Fired()-f0) / pktHops
	out["netsim.unicast_allocs_per_pkt_hop"] = allocs / pktHops
}

// countingMember is an mcast.Member that only counts what it is handed.
type countingMember struct{ n int64 }

func (m *countingMember) RecvMulticast(*netsim.Packet) { m.n++ }

// freshTree generates wl's topology on a new engine and puts a bare
// multicast domain on it, with one base-layer group per session.
func freshTree(wl workload, seed int64) (*sim.Engine, *topology.Build, *mcast.Domain, []netsim.GroupID) {
	e := sim.NewEngine(seed)
	_, cfg, err := topology.Parse(wl.Topo)
	if err != nil {
		panic(err) // the measured phase already parsed it
	}
	b := topology.MustGenerate(e, cfg)
	d := mcast.NewDomain(b.Net)
	groups := make([]netsim.GroupID, len(b.Sources))
	for s, src := range b.Sources {
		groups[s] = d.RegisterGroup(s, 1, src.ID)
	}
	return e, b, d, groups
}

// driveFanout joins every receiver node of the workload's tree and sends
// packets from the source one at a time, draining the engine after each so
// no queue overflows. The time per delivered copy includes the netsim
// links and the sim queue under the replication.
func driveFanout(wl workload, seed int64, rec *spanRec, parent int, out map[string]float64) {
	e, b, d, groups := freshTree(wl, seed)
	m := &countingMember{}
	receivers := 0
	for s, rxs := range b.Receivers {
		for _, n := range rxs {
			d.Join(n.ID, groups[s], m)
			receivers++
		}
	}
	e.Run()
	rounds := 200000/receivers + 1
	ns, _ := measure(rec, parent, "drive.mcast.fanout", func() {
		for r := 0; r < rounds; r++ {
			for s, src := range b.Sources {
				p := b.Net.NewPacket()
				p.Kind = netsim.Data
				p.Src, p.Dst, p.Group = src.ID, netsim.NoNode, groups[s]
				p.Session, p.Layer, p.Seq, p.Size = s, 1, int64(r), source.PacketSize
				src.SendMulticastLocal(p)
				p.Release()
				e.Run()
			}
		}
	})
	out["mcast.fanout_ns_per_copy"] = ns / float64(m.n)
}

// driveJoinLeave joins and at once leaves every receiver node of an
// otherwise empty tree, then drains the leave-latency prune timers.
func driveJoinLeave(wl workload, seed int64, rec *spanRec, parent int, out map[string]float64) {
	e, b, d, groups := freshTree(wl, seed)
	m := &countingMember{}
	pairs := 0
	ns, _ := measure(rec, parent, "drive.mcast.join_leave", func() {
		for pairs < 20000 {
			for s, rxs := range b.Receivers {
				for _, n := range rxs {
					d.Join(n.ID, groups[s], m)
					d.Leave(n.ID, groups[s], m)
					pairs++
				}
			}
			e.Run()
		}
	})
	out["mcast.join_leave_us"] = ns / 1e3 / float64(pairs)
}

// twoNodes is the smallest network a source or receiver can stand on.
func twoNodes() (*sim.Engine, *netsim.Network, *mcast.Domain, *netsim.Node, *netsim.Node) {
	e := sim.NewEngine(1)
	net := netsim.New(e)
	a, b := net.AddNode("a"), net.AddNode("b")
	net.Connect(a, b, netsim.LinkConfig{Bandwidth: 10e6, Delay: sim.Millisecond})
	return e, net, mcast.NewDomain(net), a, b
}

// driveSource runs one six-layer source with no members for 300 simulated
// seconds, CBR and VBR(P=3) apart.
func driveSource(rec *spanRec, parent int, out map[string]float64) {
	for _, m := range []struct {
		suffix string
		p      float64
	}{{"cbr", 0}, {"vbr", 3}} {
		e, net, d, a, _ := twoNodes()
		src := source.New(net, d, a, source.Config{PeakToMean: m.p})
		src.Start()
		ns, allocs := measure(rec, parent, "drive.source."+m.suffix, func() { e.RunUntil(300 * sim.Second) })
		var pkts int64
		for k := 1; k <= src.Layers(); k++ {
			pkts += src.Sent(k)
		}
		out["source.emit_ns_per_pkt_"+m.suffix] = ns / float64(pkts)
		out["source.emit_allocs_per_pkt_"+m.suffix] = allocs / float64(pkts)
	}
}

// driveReceiver hands in-order base-layer packets to one started receiver.
func driveReceiver(rec *spanRec, parent int, out map[string]float64) {
	const pkts = 2_000_000
	_, net, d, a, b := twoNodes()
	source.New(net, d, a, source.Config{}) // registers the session's groups
	rx := receiver.New(net, d, b, receiver.Config{
		MaxLayers: source.DefaultLayers, InitialLevel: 1, Controller: netsim.NoNode,
	})
	rx.Start()
	p := &netsim.Packet{Kind: netsim.Data, Src: a.ID, Dst: netsim.NoNode, Group: d.GroupOf(0, 1), Layer: 1, Size: source.PacketSize}
	ns, _ := measure(rec, parent, "drive.receiver", func() {
		for i := int64(0); i < pkts; i++ {
			p.Seq = i
			rx.RecvMulticast(p)
		}
	})
	out["receiver.recv_ns_per_pkt"] = ns / pkts
}

// driveReport times the aggregate payload's Fold and Merge over 64
// receivers a side, and counts what one control packet allocates.
func driveReport(rec *spanRec, parent int, out map[string]float64) {
	const side, folds, merges, ctlPkts = 64, 1_000_000, 100_000, 100_000
	lr := func(node int) report.LossReport {
		return report.LossReport{Node: netsim.NodeID(node), Level: 3, LossRate: 0.02, Bytes: 4000, Interval: sim.Second}
	}
	agg := report.NewAggregate(0, 0)
	ns, _ := measure(rec, parent, "drive.report.fold", func() {
		for i := 0; i < folds; i++ {
			agg.Fold(lr(i % side))
		}
	})
	agg.Release()
	out["report.fold_ns"] = ns / folds

	left, right := report.NewAggregate(0, 1), report.NewAggregate(0, 2)
	for i := 0; i < side; i++ {
		left.Fold(lr(2 * i))
		right.Fold(lr(2*i + 1))
	}
	ns, _ = measure(rec, parent, "drive.report.merge", func() {
		for i := 0; i < merges; i++ {
			a := report.NewAggregate(0, 0)
			a.Merge(left)
			a.Merge(right) // interleaved node IDs: the two-pointer path
			a.Release()
		}
	})
	left.Release()
	right.Release()
	out["report.merge_ns"] = ns / (2 * merges)

	now := 5 * sim.Second
	_, allocs := measure(rec, parent, "drive.report.ctl_pkt", func() {
		for i := 0; i < ctlPkts; i++ {
			p := report.NewControlPacket(1, 0, report.LossReportSize, now, lr(i))
			p.Release()
		}
	})
	out["report.ctl_pkt_allocs"] = allocs / ctlPkts
}
