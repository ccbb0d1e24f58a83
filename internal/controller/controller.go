// Package controller implements the per-domain controller agent of the
// TopoSense architecture. The agent sits on a network node (the paper
// stations it at a source node, so its control traffic crosses the same
// congested links as the media). Receivers register with it and send
// periodic loss reports; a topology discovery tool supplies (possibly
// stale) session trees; every decision interval the agent runs the
// TopoSense algorithm and unicasts a subscription suggestion to every
// registered receiver.
package controller

import (
	"sort"
	"time"

	"toposense/internal/core"
	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/obs"
	"toposense/internal/report"
	"toposense/internal/sim"
	"toposense/internal/topodisc"
)

// subtreeKey identifies one controller-adjacent subtree's aggregate stream.
type subtreeKey struct {
	session int
	origin  netsim.NodeID
}

// fanGroup is the batched fan-out's scratch: one outgoing SuggestionBatch
// per next hop from the controller.
type fanGroup struct {
	next  netsim.NodeID
	batch *report.SuggestionBatch
}

// accum aggregates the sub-interval receiver reports that arrive between
// two algorithm steps into the single per-interval view the algorithm
// consumes.
type accum struct {
	bytes    int64
	lossSum  float64
	lossN    int
	level    int
	reported bool
}

// rxSlot is everything the controller keeps about one (session, receiver):
// one report touches one slot. A slot is created the first time the pair is
// heard from and never moves or goes away; unregistering clears it.
type rxSlot struct {
	session int
	node    netsim.NodeID
	// gen is the registration generation, 0 while unregistered. It is bumped
	// every time the receiver (re-)registers, so a pending mid-interval
	// resend — computed for the previous incarnation — can tell that the
	// receiver it targets is not the one it was meant for, even when expiry
	// and re-registration happen within one pass.
	gen   uint64
	heard sim.Time
	acc   accum
	// last is the most recent completed aggregate (valid when hasLast), used
	// when a receiver goes silent for a whole interval (its reports were
	// lost): the algorithm then sees the stale numbers, like a real
	// controller would.
	last    core.ReceiverState
	hasLast bool
}

// resend is one pending mid-interval suggestion repeat, an event record
// (sim.FreeList): of one suggestion, or on the batched plane of the pass.
type resend struct {
	c       *Controller
	gen     uint64 // the controller's generation at the pass
	batched bool
	sg      core.Suggestion
	slot    int
	rgen    uint64 // the receiver's registration generation at the pass
	fire    func() // run, bound once
}

// run repeats the suggestions, unless the controller stopped or — per
// entry — the receiver expired or re-registered since the pass.
func (r *resend) run() {
	c := r.c
	if c.ticker != nil && c.gen == r.gen {
		if r.batched {
			// The scratch is only rewritten by the next pass, a half
			// interval after this fires; recheck generations per entry.
			c.sendBatched(c.batchSugs, c.batchGens, true)
		} else if c.slots[r.slot].gen == r.rgen {
			c.sendSuggestion(r.sg)
		}
	}
	c.resends.Put(r)
}

// staleMsg is one control message held back by Staleness, an event record
// holding a copy of a payload that lived in its packet's storage.
type staleMsg struct {
	c       *Controller
	payload any
	rep     report.LossReport
	reg     report.Register
	dereg   report.Deregister
	fire    func() // run, bound once
}

func (m *staleMsg) run() {
	m.c.consume(m.payload)
	m.payload = nil
	m.c.stale.Put(m)
}

// Controller is the controller agent.
type Controller struct {
	net    *netsim.Network
	domain *mcast.Domain
	node   *netsim.Node
	tool   *topodisc.Tool
	alg    *core.Algorithm

	interval sim.Time
	ticker   *sim.Ticker
	// gen is bumped by Stop so suggestion resends scheduled before the
	// stop recognize they are stale and do not fire.
	gen uint64

	// DisableResend suppresses the mid-interval suggestion repeat
	// (ablation switch; the repeat protects against control loss on the
	// congested links suggestions must cross).
	DisableResend bool

	// Staleness delays the controller's view of receiver feedback: a
	// report is only usable Staleness after it arrives, matching the
	// paper's stale-information experiments ("the impact of old topology
	// and loss information"). The discovery tool carries its own staleness
	// for the topology half.
	Staleness sim.Time

	// slots is the receiver table; slotOf[session][node] is a slot's index
	// plus one (0 = none), grown on demand — node IDs are dense per network,
	// so a report finds its slot with two slice indexes and no hashing. order
	// lists the slots in (session, node) order, the order a pass visits
	// them in; it is rebuilt only after a slot was added (orderStale).
	slots      []rxSlot
	slotOf     [][]int32
	order      []int32
	orderStale bool
	regSeq     uint64
	// departed counts, per session, the receivers unregistered since the
	// last decision pass. It is read during OnStep (the federation leaf
	// folds departures into its export) and cleared at the end of every
	// step. Lazily allocated: without churn it stays nil and costs nothing.
	departed map[int]int
	billing  *ledger // non-nil once EnableBilling is called

	// levelCap caps the level the controller may suggest per session — the
	// enforcement half of the hierarchical control plane: a parent
	// controller (internal/federation) pushes per-domain session budgets
	// down, and the leaf clamps every core.Algorithm suggestion to its
	// budget before fan-out. Empty (the default) leaves suggestions
	// untouched, so a non-federated controller is byte-identical to the
	// pre-federation code path.
	levelCap map[int]int

	// aggregated switches the suggestion fan-out to pooled per-next-hop
	// SuggestionBatch packets (see EnableAggregation); subtrees collects the
	// latest aggregate summary per (session, origin) for the algorithm's
	// aggregate-aware input, and the batch*/fan* slices are per-pass scratch
	// reused so the steady-state fan-out allocates nothing.
	aggregated bool
	subtrees   map[subtreeKey]core.SubtreeSummary
	batchSugs  []core.Suggestion
	batchGens  []uint64
	fanGroups  []fanGroup

	// Stats. TopologiesRejected counts discovered session trees that failed
	// core.Topology.Validate, a torn or inconsistent snapshot: that session
	// sits the pass out.
	StepsRun           int64
	TopologiesRejected int64
	SuggestionsSent    int64
	ReportsRecv        int64
	RegistersRecv      int64
	DeregistersRecv    int64
	// Control-plane fan-in, counted at packet delivery: every control
	// message (and its modeled wire bytes) the controller's node handed to
	// the agent. With aggregation on, AggregatesRecv of those were compact
	// in-network merges and BatchesSent counts the pooled downward packets.
	CtlMsgsRecv    int64
	CtlBytesRecv   int64
	AggregatesRecv int64
	BatchesSent    int64
	// SuggestionsCapped counts suggestions clamped down to a session's
	// federation budget before fan-out.
	SuggestionsCapped int64
	// PassWallNanos / PassWallMaxNanos accumulate the host wall-clock time
	// spent inside step() — total and worst single pass. Wall time feeds
	// only reporting (the fig_scale controller-latency column); simulation
	// behaviour never reads the host clock, so determinism is unaffected.
	PassWallNanos    int64
	PassWallMaxNanos int64

	// OnStep, if set, observes each step's inputs and outputs. The out
	// slice is backed by the algorithm's scratch arena and only valid for
	// the duration of the call; copy it to retain.
	OnStep func(now sim.Time, in core.Input, out []core.Suggestion)

	// obs, when set via SetObs, receives the pass counter, the
	// pass-distance histogram, flight-recorder pass events, and the
	// per-pass decision audit.
	obs           *obs.Obs
	lastPassFired uint64
	lastPassMsgs  int64

	// Event records: pending suggestion repeats and Staleness deferrals.
	resends sim.FreeList[resend]
	stale   sim.FreeList[staleMsg]
}

// New creates a controller at node using the given discovery tool and
// algorithm. The algorithm's configured Interval drives the decision timer.
func New(net *netsim.Network, domain *mcast.Domain, node *netsim.Node, tool *topodisc.Tool, alg *core.Algorithm) *Controller {
	c := &Controller{
		net:      net,
		domain:   domain,
		node:     node,
		tool:     tool,
		alg:      alg,
		interval: alg.Config().Interval,
	}
	c.resends.Bind = func(r *resend) { r.c, r.fire = c, r.run }
	c.stale.Bind = func(m *staleMsg) { m.c, m.fire = c, m.run }
	node.AttachAgent(c)
	return c
}

// Node returns the node the controller runs on.
func (c *Controller) Node() *netsim.Node { return c.node }

// global returns the scheduler for the controller's domain-wide work. The
// decision pass reads cross-shard state (discovery snapshots, algorithm
// runs spanning every session), so on a partitioned network it runs as a
// stop-the-world global event at window barriers.
func (c *Controller) global() sim.Scheduler { return sim.GlobalOf(c.net.Engine()) }

// nodeSched returns the scheduler owning the controller's node: report and
// registration consumption happens in node context, on the node's shard.
func (c *Controller) nodeSched() sim.Scheduler { return c.net.SchedulerFor(c.node.ID) }

// Algorithm returns the underlying TopoSense instance.
func (c *Controller) Algorithm() *core.Algorithm { return c.alg }

// SetObs attaches the observability bundle. Pass nil (the default) for
// zero-overhead operation: the only cost left is one pointer check per
// decision interval.
func (c *Controller) SetObs(o *obs.Obs) { c.obs = o }

// EnableAggregation switches the suggestion fan-out from per-receiver
// unicasts to one pooled SuggestionBatch per next hop, for worlds running an
// in-network aggregation layer (mcast.Aggregator) that splits the batches
// down the tree. Aggregate consumption needs no switch — consume handles
// report.Aggregate payloads whenever they arrive. Call before Start.
func (c *Controller) EnableAggregation() { c.aggregated = true }

// SetLevelCap caps the controller's suggestions for one session at max
// (the per-domain session budget a federation parent granted). max <= 0
// clears the cap. Takes effect from the next decision pass.
func (c *Controller) SetLevelCap(session, max int) {
	if max <= 0 {
		delete(c.levelCap, session)
		return
	}
	if c.levelCap == nil {
		c.levelCap = make(map[int]int)
	}
	c.levelCap[session] = max
}

// LevelCap returns the session's budget cap (0 = uncapped).
func (c *Controller) LevelCap(session int) int { return c.levelCap[session] }

// RegisteredReceivers returns every currently registered (session, node)
// pair, sorted — the controller's membership view. The federation
// experiment uses it to prove domain isolation: a leaf controller must
// never have consumed a report from outside its domain.
func (c *Controller) RegisteredReceivers() []ReceiverID {
	var out []ReceiverID
	for _, i := range c.visitOrder() {
		if s := &c.slots[i]; s.gen != 0 {
			out = append(out, ReceiverID{Session: s.session, Node: s.node})
		}
	}
	return out
}

// lookup returns the slot index of (session, node), or -1 when the pair was
// never heard from.
func (c *Controller) lookup(session int, node netsim.NodeID) int {
	if session >= len(c.slotOf) || int(node) >= len(c.slotOf[session]) {
		return -1
	}
	return int(c.slotOf[session][node]) - 1
}

// registration returns the slot index and registration generation of
// (session, node); generation 0 means not registered (slot may be -1).
func (c *Controller) registration(session int, node netsim.NodeID) (slot int, gen uint64) {
	if slot = c.lookup(session, node); slot >= 0 {
		gen = c.slots[slot].gen
	}
	return slot, gen
}

// slot returns the slot of (session, node), creating it unregistered. The
// pointer is good until the next call.
func (c *Controller) slot(session int, node netsim.NodeID) *rxSlot {
	i := c.lookup(session, node)
	if i < 0 {
		i = c.addSlot(session, node)
	}
	return &c.slots[i]
}

// addSlot appends the slot of a pair first heard from and indexes it.
func (c *Controller) addSlot(session int, node netsim.NodeID) int {
	for session >= len(c.slotOf) {
		c.slotOf = append(c.slotOf, nil)
	}
	for int(node) >= len(c.slotOf[session]) {
		c.slotOf[session] = append(c.slotOf[session], 0)
	}
	c.slots = append(c.slots, rxSlot{session: session, node: node})
	c.slotOf[session][node] = int32(len(c.slots))
	c.orderStale = true
	return len(c.slots) - 1
}

// heardFrom returns the slot of (session, node) marked as heard now. Feedback
// implies registration (the Register packet may be lost), but feedback from
// an already-registered receiver is the same incarnation — it must not open
// a new generation, or every report would invalidate the pending
// mid-interval resend.
func (c *Controller) heardFrom(session int, node netsim.NodeID, now sim.Time) *rxSlot {
	s := c.slot(session, node)
	if s.gen == 0 {
		c.regSeq++
		s.gen = c.regSeq
	}
	s.heard = now
	return s
}

// visitOrder returns the slot indexes in (session, node) order. slotOf is
// already laid out that way, so a rebuild is one walk over it, no sort.
func (c *Controller) visitOrder() []int32 {
	if c.orderStale {
		c.orderStale = false
		c.order = c.order[:0]
		for _, byNode := range c.slotOf {
			for _, i := range byNode {
				if i != 0 {
					c.order = append(c.order, i-1)
				}
			}
		}
	}
	return c.order
}

// ReceiverID identifies one registered receiver of one session.
type ReceiverID struct {
	Session int
	Node    netsim.NodeID
}

// Unregister forgets a receiver immediately: its slot is cleared (which
// invalidates any pending mid-interval suggestion resend through the
// registration-generation check — generation 0 fails the recheck) and it is
// evicted from the next algorithm pass. A later Register from the same node
// is a fresh incarnation and opens a new generation, exactly like a
// re-registration after expiry. Unknown receivers are ignored.
func (c *Controller) Unregister(session int, node netsim.NodeID) {
	slot, gen := c.registration(session, node)
	if gen == 0 {
		return
	}
	c.slots[slot].clear()
	if c.departed == nil {
		c.departed = make(map[int]int)
	}
	c.departed[session]++
}

// clear returns the slot to the unregistered state: nothing of the old
// incarnation — accumulator, last state, generation — survives.
func (s *rxSlot) clear() { *s = rxSlot{session: s.session, node: s.node} }

// PassDepartures returns how many receivers of session have deregistered
// since the last decision pass. Valid during OnStep; the count resets when
// the pass completes.
func (c *Controller) PassDepartures(session int) int { return c.departed[session] }

// DepartedSessions returns the sessions with departures pending in the
// current pass, sorted; nil when there were none.
func (c *Controller) DepartedSessions() []int {
	if len(c.departed) == 0 {
		return nil
	}
	out := make([]int, 0, len(c.departed))
	for s := range c.departed {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Start begins the discovery tool and the periodic decision timer.
func (c *Controller) Start() {
	if c.ticker != nil {
		return
	}
	c.tool.Start()
	c.ticker = sim.Every(c.global(), c.interval, c.step)
}

// Stop halts the decision timer (the discovery tool keeps running so a
// restart has fresh history). Pending mid-interval suggestion resends are
// invalidated: a stopped controller must go silent immediately.
func (c *Controller) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
		c.gen++
	}
}

// Recv implements netsim.Agent: consume registrations and loss reports.
// With Staleness set, processing is deferred so the information is that old
// by the time the algorithm sees it.
func (c *Controller) Recv(p *netsim.Packet) {
	c.CtlMsgsRecv++
	c.CtlBytesRecv += int64(p.Size)
	if c.Staleness > 0 {
		m := c.stale.Get()
		switch pl := p.Payload.(type) {
		case *report.LossReport:
			m.rep = *pl
			m.payload = &m.rep
		case *report.Register:
			m.reg = *pl
			m.payload = &m.reg
		case *report.Deregister:
			m.dereg = *pl
			m.payload = &m.dereg
		default:
			m.payload = p.Payload // an *Aggregate is the consumer's own
		}
		c.nodeSched().Schedule(c.Staleness, m.fire)
		return
	}
	c.consume(p.Payload)
}

func (c *Controller) consume(payload any) {
	now := c.nodeSched().Now()
	switch pl := payload.(type) {
	case *report.Register:
		c.RegistersRecv++
		// Every Register is a (re)start of the receiver, so it opens a new
		// registration generation — pending resends aimed at the previous
		// incarnation go inert.
		sl := c.slot(pl.Session, pl.Node)
		c.regSeq++
		sl.gen = c.regSeq
		sl.heard = now
		// A re-registration is a receiver restarting, possibly at a
		// different level; tracking it at the stale level until its first
		// loss report would mis-steer the next step.
		sl.acc.level = pl.Level
	case *report.LossReport:
		c.ReportsRecv++
		a := &c.heardFrom(pl.Session, pl.Node, now).acc
		a.bytes += pl.Bytes
		a.lossSum += pl.LossRate
		a.lossN++
		a.level = pl.Level
		a.reported = true
		if c.billing != nil {
			c.billing.meter(pl.Session, pl.Node, pl.Bytes, pl.Level, pl.Interval)
		}
	case *report.Deregister:
		c.DeregistersRecv++
		c.Unregister(pl.Session, pl.Node)
	case *report.Aggregate:
		// An in-network merge of many receivers' reports. Each entry carries
		// the exact sums of its receiver's folded reports, so folding it here
		// reproduces the flat path's accumulator state bit for bit; that is
		// the decision-equivalence contract the aggregation layer keeps.
		c.AggregatesRecv++
		c.ReportsRecv += pl.ReportCount
		for i := range pl.Entries {
			e := &pl.Entries[i]
			a := &c.heardFrom(pl.Session, e.Node, now).acc
			a.bytes += e.Bytes
			a.lossSum += e.LossSum
			a.lossN += int(e.Reports)
			a.level = e.Level
			a.reported = true
			if c.billing != nil {
				c.billing.meter(pl.Session, e.Node, e.Bytes, e.Level, pl.Interval)
			}
		}
		if c.subtrees == nil {
			c.subtrees = make(map[subtreeKey]core.SubtreeSummary)
		}
		c.subtrees[subtreeKey{pl.Session, pl.Origin}] = core.SubtreeSummary{
			Session:   pl.Session,
			Origin:    pl.Origin,
			Receivers: pl.Receivers(),
			Reports:   pl.ReportCount,
			Bytes:     pl.ByteTotal,
			MeanLoss:  pl.MeanLoss(),
			MaxLoss:   pl.MaxLoss,
			Worst:     pl.Worst,
		}
		pl.Release()
	}
}

// step runs one TopoSense interval: assemble topologies and reports, run
// the algorithm, send suggestions.
func (c *Controller) step() {
	passStart := time.Now()
	defer func() {
		d := int64(time.Since(passStart))
		c.PassWallNanos += d
		if d > c.PassWallMaxNanos {
			c.PassWallMaxNanos = d
		}
	}()
	now := c.global().Now()

	// Expire receivers that have gone silent for several intervals: they
	// left (or died) and instructing them would steer the tree with ghost
	// demand. Generosity scales with staleness, since reports are consumed
	// late on purpose.
	horizon := 5*c.interval + c.Staleness
	for i := range c.slots {
		if s := &c.slots[i]; s.gen != 0 && now-s.heard > horizon {
			s.clear()
		}
	}

	// Topologies from the discovery tool (respecting its staleness).
	var topos []*core.Topology
	for _, s := range c.tool.Sessions() {
		snap := c.tool.Discover(s)
		if snap == nil || snap.Empty() {
			continue
		}
		topo := SnapshotToTopology(snap)
		if err := topo.Validate(); err != nil {
			c.TopologiesRejected++
			continue // a torn snapshot is skipped, not acted on
		}
		topos = append(topos, topo)
	}

	// Fold accumulated receiver reports into per-interval states. When the
	// audit log is live, mirror each state into an audit entry as it is
	// assembled — the audit records exactly what the algorithm consumed.
	auditing := c.obs != nil && c.obs.Audit != nil
	var audit []obs.AuditEntry
	var auditIdx []int32 // slot index -> audit index + 1
	var reports []core.ReceiverState
	order := c.visitOrder()
	if auditing {
		audit = make([]obs.AuditEntry, 0, len(order))
		auditIdx = make([]int32, len(c.slots))
	}
	registered, reported := 0, 0
	for _, i := range order {
		s := &c.slots[i]
		if s.gen == 0 {
			continue
		}
		registered++
		stale := !s.acc.reported
		if stale {
			// Silent interval: reuse the last known state if any.
			if !s.hasLast {
				continue
			}
		} else {
			reported++
			a := &s.acc
			s.last = core.ReceiverState{
				Node:     s.node,
				Session:  s.session,
				Level:    a.level,
				LossRate: a.lossSum / float64(a.lossN),
				Bytes:    a.bytes,
			}
			s.hasLast = true
			*a = accum{level: a.level}
		}
		st := s.last
		reports = append(reports, st)
		if auditing {
			audit = append(audit, obs.AuditEntry{
				Node: int(s.node), Session: s.session,
				Level: st.Level, Loss: st.LossRate, Bytes: st.Bytes,
				Stale: stale, Parent: -1, Prescribed: -1,
			})
			auditIdx[i] = int32(len(audit))
		}
	}
	if auditing {
		// Topology evidence: each receiver's parent in its session's
		// validated discovered tree, when one covered it this pass.
		for _, topo := range topos {
			for i := range audit {
				if audit[i].Session != topo.Session {
					continue
				}
				if p, ok := topo.Parent[core.NodeID(audit[i].Node)]; ok {
					audit[i].OnTree = true
					audit[i].Parent = int(p)
				}
			}
		}
	}

	// Subtree summaries from consumed aggregates: the latest per (session,
	// origin), sorted for determinism, cleared each pass like the accums.
	var subs []core.SubtreeSummary
	if len(c.subtrees) > 0 {
		subs = make([]core.SubtreeSummary, 0, len(c.subtrees))
		for _, s := range c.subtrees {
			subs = append(subs, s)
		}
		sort.Slice(subs, func(i, j int) bool {
			if subs[i].Session != subs[j].Session {
				return subs[i].Session < subs[j].Session
			}
			return subs[i].Origin < subs[j].Origin
		})
		for k := range c.subtrees {
			delete(c.subtrees, k)
		}
	}

	in := core.Input{Now: now, Topologies: topos, Reports: reports, Subtrees: subs}
	out := c.alg.Step(in)
	c.StepsRun++

	// Federation budget enforcement: clamp each suggestion to its session's
	// cap before any fan-out path sees it (the algorithm's scratch-backed
	// slice is safely mutable until its next Step).
	if len(c.levelCap) > 0 {
		for i := range out {
			if _, gen := c.registration(out[i].Session, out[i].Node); gen == 0 {
				// A receiver that deregistered mid-interval: the fan-out below
				// skips it, so clamping it here would only inflate the capped
				// counter with ghost bookkeeping.
				continue
			}
			if lim, ok := c.levelCap[out[i].Session]; ok && out[i].Level > lim {
				out[i].Level = lim
				c.SuggestionsCapped++
				if c.obs != nil {
					c.obs.FedCapped.Inc()
				}
			}
		}
	}

	if auditing {
		for _, sg := range out {
			if i := c.lookup(sg.Session, sg.Node); i >= 0 && auditIdx[i] != 0 {
				audit[auditIdx[i]-1].Prescribed = sg.Level
			}
		}
	}
	sent := 0
	if c.aggregated {
		// Batched fan-out: filter to registered receivers into the per-pass
		// scratch (with registration generations for the resend recheck),
		// then send one pooled batch per next hop — and one resend record
		// per pass instead of one per receiver.
		c.batchSugs = c.batchSugs[:0]
		c.batchGens = c.batchGens[:0]
		for _, sg := range out {
			_, rgen := c.registration(sg.Session, sg.Node)
			if rgen == 0 {
				continue // never instruct an unregistered receiver
			}
			c.batchSugs = append(c.batchSugs, sg)
			c.batchGens = append(c.batchGens, rgen)
			sent++
		}
		c.sendBatched(c.batchSugs, c.batchGens, false)
		if !c.DisableResend && sent > 0 {
			r := c.newResend()
			r.batched = true
			c.global().Schedule(c.interval/2, r.fire)
		}
	} else {
		for _, sg := range out {
			slot, rgen := c.registration(sg.Session, sg.Node)
			if rgen == 0 {
				continue // never instruct an unregistered receiver
			}
			c.suggest(sg, slot, rgen)
			sent++
		}
	}
	if c.obs != nil {
		c.obs.FanIn.Observe(float64(c.CtlMsgsRecv - c.lastPassMsgs))
		if registered > 0 {
			c.obs.ReportCoverage.Observe(float64(reported) / float64(registered))
		}
		c.lastPassMsgs = c.CtlMsgsRecv
		var fired uint64
		// Schedulers expose the fired-event counter only through their
		// concrete engines; a scheduler without one reports zero distance.
		if f, ok := c.net.Engine().(interface{ Fired() uint64 }); ok {
			fired = f.Fired()
		}
		since := fired - c.lastPassFired
		c.lastPassFired = fired
		c.obs.Passes.Inc()
		c.obs.PassEvents.Observe(float64(since))
		c.obs.Rec.Record(obs.Event{
			At: now, Kind: obs.EvPass,
			From: int32(c.node.ID), To: -1, Session: -1,
			Seq: c.StepsRun, Aux: int64(sent),
		})
		c.obs.Audit.Add(obs.AuditPass{
			At: now, Topologies: len(topos), EventsSince: since,
			Receivers: audit,
		})
	}
	if c.OnStep != nil {
		c.OnStep(now, in, out)
	}
	// Departure counts cover exactly one pass; OnStep (the federation leaf's
	// export hook) was the last reader. Ranging a nil map is free, so the
	// churn-free pass stays allocation-free.
	for s := range c.departed {
		delete(c.departed, s)
	}
}

// suggest instructs one registered receiver: the suggestion now and one
// repeat half an interval on. Suggestions cross the congested links they are
// trying to relieve and are routinely lost exactly when they matter most; a
// single mid-interval repeat makes the control loop robust without
// meaningful extra traffic. The repeat is dropped if the controller stopped,
// the receiver expired, or the receiver re-registered as a new incarnation
// (even within this same pass), in the meantime.
func (c *Controller) suggest(sg core.Suggestion, slot int, rgen uint64) {
	c.sendSuggestion(sg)
	if c.DisableResend {
		return
	}
	r := c.newResend()
	r.sg, r.slot, r.rgen = sg, slot, rgen
	c.global().Schedule(c.interval/2, r.fire)
}

// newResend takes a resend record for the current pass.
func (c *Controller) newResend() *resend {
	r := c.resends.Get()
	r.gen, r.batched = c.gen, false
	return r
}

// sendSuggestion unicasts one suggestion on a pooled packet.
func (c *Controller) sendSuggestion(sg core.Suggestion) {
	at := c.global().Now()
	pkt := report.NewSuggestionPacket(c.net, c.node.ID, sg.Node, at,
		report.Suggestion{Node: sg.Node, Session: sg.Session, Level: sg.Level, Sent: at})
	c.node.SendUnicast(pkt)
	pkt.Release()
	c.SuggestionsSent++
}

// sendBatched sends the suggestions in sugs as one pooled SuggestionBatch
// per next hop from the controller; the in-network aggregation layer splits
// each batch further down the tree. With recheck set (the mid-interval
// resend) entries whose receiver expired or re-registered since the pass are
// skipped, exactly like the per-receiver resend guard on the flat path. The
// fan-group scratch is reused across calls, so steady-state passes allocate
// nothing here.
func (c *Controller) sendBatched(sugs []core.Suggestion, gens []uint64, recheck bool) {
	at := c.global().Now()
	groups := c.fanGroups[:0]
	for i, sg := range sugs {
		if recheck {
			if _, gen := c.registration(sg.Session, sg.Node); gen != gens[i] {
				continue
			}
		}
		if sg.Node == c.node.ID {
			// A receiver co-located with the controller: no hop to batch
			// over, deliver the plain suggestion locally.
			c.sendSuggestion(sg)
			continue
		}
		next := c.net.NextHop(c.node.ID, sg.Node)
		if next == netsim.NoNode {
			continue // unreachable, as the equivalent unicast would be
		}
		var g *fanGroup
		for j := range groups {
			if groups[j].next == next {
				g = &groups[j]
				break
			}
		}
		if g == nil {
			groups = append(groups, fanGroup{next: next, batch: report.NewSuggestionBatch()})
			g = &groups[len(groups)-1]
			g.batch.Sent = at
		}
		g.batch.Add(sg.Node, sg.Session, sg.Level)
		c.SuggestionsSent++
	}
	for i := range groups {
		g := &groups[i]
		pkt := report.NewPooledPacket(c.net, c.node.ID, g.next, g.batch.WireSize(), at)
		pkt.Payload = g.batch
		c.node.SendUnicast(pkt)
		pkt.Release()
		g.batch = nil
		c.BatchesSent++
	}
	c.fanGroups = groups
}

// SnapshotToTopology presents a discovery snapshot as the algorithm's
// topology type. The maps are the snapshot's own: a recorded snapshot is
// immutable and core only reads a Topology, so nothing is copied.
func SnapshotToTopology(s *topodisc.Snapshot) *core.Topology {
	return &core.Topology{
		Session:   s.Session,
		Root:      s.Root,
		Parent:    s.Parent,
		Children:  s.Children,
		Receivers: s.Receivers,
	}
}
