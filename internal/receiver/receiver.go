// Package receiver implements the multicast receiver agent: it subscribes to
// a prefix of a session's layers, measures packet loss and received bytes
// from sequence numbers, periodically reports to the controller agent over
// the (lossy) network, and obeys the controller's subscription suggestions.
// When suggestions stop arriving for long enough — they are real packets and
// can be lost — the receiver falls back to unilateral decisions, as the
// paper prescribes.
package receiver

import (
	"fmt"

	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/report"
	"toposense/internal/sim"
)

// Defaults for the receiver's timers.
const (
	DefaultReportInterval = 500 * sim.Millisecond
	// DefaultUnilateralAfter is how long without a suggestion before the
	// receiver starts acting on its own.
	DefaultUnilateralAfter = 6 * sim.Second
	// DefaultUnilateralLoss is the loss rate that triggers a unilateral
	// layer drop once suggestions have gone quiet. Deliberately low: when
	// the control channel itself is congested (suggestions cross the same
	// links as media), the receiver must shed load on its own or the
	// system deadlocks over-subscribed.
	DefaultUnilateralLoss = 0.10
)

// Change is one subscription-level change, reported to OnChange for
// stability analysis (paper Figures 6 and 7).
type Change struct {
	At       sim.Time
	From, To int
}

// Config parameterizes a receiver.
type Config struct {
	Session         int
	MaxLayers       int           // total layers in the session
	InitialLevel    int           // layers joined at Start (>= 0)
	Controller      netsim.NodeID // where to send reports; NoNode disables reporting
	ReportInterval  sim.Time      // 0 means DefaultReportInterval
	UnilateralAfter sim.Time      // 0 means DefaultUnilateralAfter; < 0 disables
	UnilateralLoss  float64       // 0 means DefaultUnilateralLoss
}

// layerState tracks per-layer sequence accounting within one measurement
// interval.
type layerState struct {
	joined   bool
	haveSeq  bool   // whether lastSeq is valid
	lastSeq  int64  // highest sequence seen overall
	window   uint64 // bitmap over (lastSeq-63 .. lastSeq]: bit d set = lastSeq-d received
	received int64  // packets received this interval (duplicates excluded)
	expected int64  // packets expected this interval (from seq gaps)
	bytes    int64  // bytes received this interval (duplicates excluded)
	debt     int64  // <= 0: over-receipt carried across interval boundaries
}

// Receiver is the receiver agent. It implements mcast.Member for data and
// netsim.Agent for control packets.
type Receiver struct {
	cfg    Config
	net    *netsim.Network
	domain *mcast.Domain
	node   *netsim.Node

	level  int
	layers []layerState // index 0 = layer 1

	lastSuggestion sim.Time
	// timer is the one pending report-timer event, timerFn its callback
	// (onTimer, bound once); ticking is set once the start offset is over.
	timer   sim.Handle
	timerFn func()
	ticking bool
	started bool
	stopped bool

	// Counters for analysis.
	ReportsSent     int64
	SuggestionsRecv int64
	UnilateralDrops int64
	// Reordered counts late arrivals that filled a sequence gap already
	// charged to expected; Duplicates counts packets discarded because the
	// sequence was already received (or too old to vouch for).
	Reordered  int64
	Duplicates int64

	// LastLoss is the loss rate of the most recent completed interval.
	LastLoss float64
	// OnChange, if set, observes every subscription change as it happens.
	OnChange func(Change)
}

// New creates a receiver at node. Call Start to join the initial layers and
// begin reporting.
func New(net *netsim.Network, domain *mcast.Domain, node *netsim.Node, cfg Config) *Receiver {
	if cfg.MaxLayers <= 0 {
		panic("receiver: MaxLayers must be positive")
	}
	if cfg.InitialLevel < 0 || cfg.InitialLevel > cfg.MaxLayers {
		panic(fmt.Sprintf("receiver: InitialLevel %d out of range 0..%d", cfg.InitialLevel, cfg.MaxLayers))
	}
	if cfg.ReportInterval == 0 {
		cfg.ReportInterval = DefaultReportInterval
	}
	if cfg.UnilateralAfter == 0 {
		cfg.UnilateralAfter = DefaultUnilateralAfter
	}
	if cfg.UnilateralLoss == 0 {
		cfg.UnilateralLoss = DefaultUnilateralLoss
	}
	r := &Receiver{
		cfg:    cfg,
		net:    net,
		domain: domain,
		node:   node,
		layers: make([]layerState, cfg.MaxLayers),
	}
	node.AttachAgent(r)
	return r
}

// sched returns the scheduler owning the receiver node's events: the
// node's shard on a partitioned network. The Start-time Rand() draw is safe
// there because Start runs before the engine does, while the model is still
// single-threaded.
func (r *Receiver) sched() sim.Scheduler { return r.net.SchedulerFor(r.node.ID) }

// Node returns the node the receiver is attached to.
func (r *Receiver) Node() *netsim.Node { return r.node }

// Session returns the session this receiver subscribes to.
func (r *Receiver) Session() int { return r.cfg.Session }

// Level returns the current subscription level (number of layers).
func (r *Receiver) Level() int { return r.level }

// Start joins the initial layers, registers with the controller, and begins
// the report/watchdog timers.
func (r *Receiver) Start() {
	if r.started {
		return
	}
	r.started = true
	e := r.sched()
	r.lastSuggestion = e.Now()
	r.setLevel(r.cfg.InitialLevel)
	if r.cfg.Controller != netsim.NoNode {
		pkt := report.NewRegisterPacket(r.net, r.node.ID, r.cfg.Controller, e.Now(),
			report.Register{Node: r.node.ID, Session: r.cfg.Session, Level: r.level})
		r.node.SendUnicast(pkt)
		pkt.Release()
		// Desynchronize report timers across receivers (RTCP randomizes
		// report times for the same reason): starting every receiver at
		// t=0 would otherwise fire all reports in the same instant, and
		// the synchronized control burst itself perturbs queues.
		offset := sim.Time(e.Rand().Int63n(int64(r.cfg.ReportInterval)))
		r.timerFn = r.onTimer
		r.timer = e.Schedule(offset, r.timerFn)
	}
}

// onTimer is the report timer: its first firing ends the start offset,
// every later one closes a measurement interval, and each re-arms it one
// ReportInterval on until the receiver stops.
func (r *Receiver) onTimer() {
	if r.stopped {
		return
	}
	if r.ticking {
		r.tick()
		if r.stopped {
			return
		}
	}
	r.ticking = true
	r.timer = r.sched().Schedule(r.cfg.ReportInterval, r.timerFn)
}

// Stop leaves all layers, halts reporting and detaches the receiver from
// its node. A stopped receiver ignores any further controller suggestions
// (they may still be in flight, or keep coming until the controller
// notices the silence); it cannot be restarted. A Stop during the start
// offset leaves the offset event to fire and return; a later one cancels
// the pending tick.
func (r *Receiver) Stop() {
	r.stopped = true
	r.node.DetachAgent(r)
	if r.ticking {
		r.sched().Cancel(r.timer)
		r.ticking = false
	}
	r.setLevel(0)
}

// Depart is the full teardown: leave every subscribed layer group (Stop)
// and tell the controller to forget this receiver. Stop alone leaves the
// controller tracking a ghost until the registration-expiry horizon (5
// intervals); Depart's deregistration packet evicts it from the very next
// algorithm pass and drops any pending mid-interval suggestion resend via
// the registration-generation check. Like Stop, Depart is idempotent and
// the receiver cannot be restarted — rejoining is a new incarnation.
func (r *Receiver) Depart() {
	if r.stopped {
		return
	}
	e := r.sched()
	r.Stop()
	if r.cfg.Controller != netsim.NoNode {
		pkt := report.NewDeregisterPacket(r.net, r.node.ID, r.cfg.Controller, e.Now(),
			report.Deregister{Node: r.node.ID, Session: r.cfg.Session})
		r.node.SendUnicast(pkt)
		pkt.Release()
	}
}

// RecvMulticast implements mcast.Member: account the packet against the
// layer's sequence stream.
//
// Individual links are FIFO, so a steady route delivers in order — but a
// tree repair can switch a receiver to a path with different latency, which
// reorders across the switch and can replay packets the old path already
// delivered. A 64-sequence bitmap behind lastSeq distinguishes the two: a
// late arrival whose sequence is missing from the window fills a gap
// already charged to expected (received goes up, expected does not — the
// gap was counted when the stream jumped past it), while a sequence already
// present is a duplicate and must not inflate received, or it would mask
// real loss elsewhere in the interval. Packets older than the window cannot
// be vouched for and are conservatively treated as duplicates.
func (r *Receiver) RecvMulticast(p *netsim.Packet) {
	if p.Session != r.cfg.Session || p.Layer < 1 || p.Layer > len(r.layers) {
		return
	}
	ls := &r.layers[p.Layer-1]
	if !ls.joined {
		return // stale packet from the leave-latency window
	}
	if !ls.haveSeq {
		ls.haveSeq = true
		ls.lastSeq = p.Seq
		ls.window = 1
		ls.received++
		ls.expected++
		ls.bytes += int64(p.Size)
		return
	}
	switch d := ls.lastSeq - p.Seq; {
	case d < 0:
		// In-order advance; skipped sequences raise expected and stand as
		// gaps in the window until a late arrival fills them.
		adv := uint64(-d)
		if adv < 64 {
			ls.window = ls.window<<adv | 1
		} else {
			ls.window = 1
		}
		ls.expected += -d
		ls.lastSeq = p.Seq
		ls.received++
		ls.bytes += int64(p.Size)
	case d < 64:
		bit := uint64(1) << uint(d)
		if ls.window&bit != 0 {
			r.Duplicates++ // already counted; bit 0 covers d == 0
			return
		}
		ls.window |= bit
		ls.received++
		ls.bytes += int64(p.Size)
		r.Reordered++
	default:
		r.Duplicates++ // beyond the window: unverifiable, assume duplicate
	}
}

// Recv implements netsim.Agent for unicast control packets: apply controller
// suggestions addressed to this receiver+session — either a per-receiver
// Suggestion or this receiver's entry of an aggregated SuggestionBatch whose
// last hop is this node.
func (r *Receiver) Recv(p *netsim.Packet) {
	switch pl := p.Payload.(type) {
	case *report.Suggestion:
		if r.stopped || pl.Node != r.node.ID || pl.Session != r.cfg.Session {
			return
		}
		r.SuggestionsRecv++
		r.lastSuggestion = r.sched().Now()
		r.applySuggestion(pl.Level)
	case *report.SuggestionBatch:
		if r.stopped {
			return
		}
		if lvl, ok := pl.Find(r.node.ID, r.cfg.Session); ok {
			r.SuggestionsRecv++
			r.lastSuggestion = r.sched().Now()
			r.applySuggestion(lvl)
		}
	}
}

// applySuggestion moves the subscription toward target: drops happen all at
// once (congestion wants a fast response), but layers are added one at a
// time per suggestion, as the paper's model requires.
func (r *Receiver) applySuggestion(target int) {
	if target < 0 {
		target = 0
	}
	if target > r.cfg.MaxLayers {
		target = r.cfg.MaxLayers
	}
	switch {
	case target < r.level:
		r.setLevel(target)
	case target > r.level:
		r.setLevel(r.level + 1)
	}
}

// setLevel joins/leaves groups to make the subscription exactly lvl layers.
func (r *Receiver) setLevel(lvl int) {
	if lvl == r.level {
		return
	}
	from := r.level
	for l := r.level + 1; l <= lvl; l++ {
		g := r.domain.GroupOf(r.cfg.Session, l)
		if g == netsim.NoGroup {
			panic(fmt.Sprintf("receiver: no group for session %d layer %d", r.cfg.Session, l))
		}
		r.domain.Join(r.node.ID, g, r)
		ls := &r.layers[l-1]
		ls.joined = true
		ls.haveSeq = false
		ls.window = 0
		ls.debt = 0 // a fresh subscription epoch owes nothing
	}
	for l := r.level; l > lvl; l-- {
		g := r.domain.GroupOf(r.cfg.Session, l)
		r.domain.Leave(r.node.ID, g, r)
		r.layers[l-1].joined = false
	}
	r.level = lvl
	if r.OnChange != nil {
		r.OnChange(Change{At: r.sched().Now(), From: from, To: lvl})
	}
}

// tick closes the measurement interval: compute the loss rate and received
// bytes, send the report, run the unilateral watchdog, and reset counters.
//
// A gap charged to expected in one interval can be filled by a late arrival
// in the next, leaving that later interval with received > expected. The
// negative remainder is carried per layer as debt (<= 0) and consumed by
// future intervals' losses, so the loss rate stays in [0, 1] every interval
// while the cumulative reported losses still sum to exactly
// total-expected - total-received.
func (r *Receiver) tick() {
	e := r.sched()
	var lost, expected, bytes int64
	for i := range r.layers {
		ls := &r.layers[i]
		l := ls.expected - ls.received + ls.debt
		if l < 0 {
			ls.debt = l
			l = 0
		} else {
			ls.debt = 0
		}
		lost += l
		expected += ls.expected
		bytes += ls.bytes
		ls.received, ls.expected, ls.bytes = 0, 0, 0
	}
	loss := 0.0
	if expected > 0 {
		loss = float64(lost) / float64(expected)
	}
	r.LastLoss = loss

	pkt := report.NewLossReportPacket(r.net, r.node.ID, r.cfg.Controller, e.Now(), report.LossReport{
		Node:     r.node.ID,
		Session:  r.cfg.Session,
		Level:    r.level,
		LossRate: loss,
		Bytes:    bytes,
		Interval: r.cfg.ReportInterval,
		Sent:     e.Now(),
	})
	r.node.SendUnicast(pkt)
	pkt.Release()
	r.ReportsSent++

	// Unilateral fallback: the controller has gone quiet and we are losing
	// heavily — shed the top layer ourselves.
	if r.cfg.UnilateralAfter > 0 &&
		e.Now()-r.lastSuggestion > r.cfg.UnilateralAfter &&
		loss > r.cfg.UnilateralLoss && r.level > 1 {
		r.UnilateralDrops++
		r.setLevel(r.level - 1)
		// Back off before acting unilaterally again.
		r.lastSuggestion = e.Now()
	}
}
