package controller

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"toposense/internal/core"
	"toposense/internal/mcast"
	"toposense/internal/netsim"
	"toposense/internal/report"
	"toposense/internal/sim"
	"toposense/internal/source"
	"toposense/internal/topodisc"
)

// rxView is what the tests may know about one (session, receiver): the
// zero value means "nothing kept", whether the pair was never heard from or
// was unregistered.
type rxView struct {
	gen     uint64
	level   int // tracked subscription level
	hasLast bool
}

// view is the tests' one window into the receiver table.
func (c *Controller) view(session int, node netsim.NodeID) rxView {
	i := c.lookup(session, node)
	if i < 0 {
		return rxView{}
	}
	s := &c.slots[i]
	return rxView{gen: s.gen, level: s.acc.level, hasLast: s.hasLast}
}

// expire drops one receiver the way the expiry sweep in step() does.
func (c *Controller) expire(session int, node netsim.NodeID) {
	if i := c.lookup(session, node); i >= 0 {
		c.slots[i].clear()
	}
}

// receiverKey identifies one registered receiver of one session.
type receiverKey struct {
	session int
	node    netsim.NodeID
}

// refState is the controller's receiver bookkeeping as it was before the
// dense table: four maps keyed by (session, node), the pass collecting and
// sorting the registered keys. It is kept as the oracle the table is
// differentially tested against.
type refState struct {
	registered map[receiverKey]uint64
	regSeq     uint64
	lastHeard  map[receiverKey]sim.Time
	acc        map[receiverKey]*accum
	last       map[receiverKey]core.ReceiverState
	departed   map[int]int
	staleUsed  int // reports served from last, for the tests' reach check
}

func newRefState() *refState {
	return &refState{
		registered: make(map[receiverKey]uint64),
		lastHeard:  make(map[receiverKey]sim.Time),
		acc:        make(map[receiverKey]*accum),
		last:       make(map[receiverKey]core.ReceiverState),
		departed:   make(map[int]int),
	}
}

func (r *refState) heard(k receiverKey, now sim.Time) *accum {
	if _, ok := r.registered[k]; !ok {
		r.regSeq++
		r.registered[k] = r.regSeq
	}
	r.lastHeard[k] = now
	a := r.acc[k]
	if a == nil {
		a = &accum{}
		r.acc[k] = a
	}
	return a
}

func (r *refState) drop(k receiverKey) {
	delete(r.registered, k)
	delete(r.lastHeard, k)
	delete(r.acc, k)
	delete(r.last, k)
}

// consume mirrors Controller.consume; it only reads the payload.
func (r *refState) consume(payload any, now sim.Time) {
	switch pl := payload.(type) {
	case *report.Register:
		k := receiverKey{pl.Session, pl.Node}
		r.regSeq++
		r.registered[k] = r.regSeq
		r.lastHeard[k] = now
		if a := r.acc[k]; a == nil {
			r.acc[k] = &accum{level: pl.Level}
		} else {
			a.level = pl.Level
		}
	case *report.LossReport:
		a := r.heard(receiverKey{pl.Session, pl.Node}, now)
		a.bytes += pl.Bytes
		a.lossSum += pl.LossRate
		a.lossN++
		a.level = pl.Level
		a.reported = true
	case *report.Deregister:
		k := receiverKey{pl.Session, pl.Node}
		if _, ok := r.registered[k]; ok {
			r.drop(k)
			r.departed[k.session]++
		}
	case *report.Aggregate:
		for i := range pl.Entries {
			e := &pl.Entries[i]
			a := r.heard(receiverKey{pl.Session, e.Node}, now)
			a.bytes += e.Bytes
			a.lossSum += e.LossSum
			a.lossN += int(e.Reports)
			a.level = e.Level
			a.reported = true
		}
	}
}

// pass mirrors the state half of Controller.step: the expiry sweep, then the
// per-interval reports in (session, node) order.
func (r *refState) pass(now, horizon sim.Time) []core.ReceiverState {
	for k, heard := range r.lastHeard {
		if now-heard > horizon {
			r.drop(k)
		}
	}
	keys := make([]receiverKey, 0, len(r.registered))
	for k := range r.registered {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].session != keys[j].session {
			return keys[i].session < keys[j].session
		}
		return keys[i].node < keys[j].node
	})
	var reports []core.ReceiverState
	for _, k := range keys {
		a := r.acc[k]
		var st core.ReceiverState
		if a == nil || !a.reported {
			var ok bool
			if st, ok = r.last[k]; !ok {
				continue
			}
			r.staleUsed++
		} else {
			st = core.ReceiverState{
				Node: k.node, Session: k.session, Level: a.level,
				LossRate: a.lossSum / float64(a.lossN), Bytes: a.bytes,
			}
			r.last[k] = st
			*a = accum{level: a.level}
		}
		reports = append(reports, st)
	}
	return reports
}

// scriptStats says how much of the machinery one script reached.
type scriptStats struct{ sent, resent, suppressed, stale int }

// sent is one suggestion seen leaving the controller.
type sent struct {
	session int
	node    netsim.NodeID
	level   int
}

// stateScript decodes script into control traffic, drives a Controller and a
// refState with it side by side, and checks at every pass that they agree
// on the reports handed to the algorithm, on who is sent a suggestion, on
// the departures counted, and — half an interval later — on which resends
// the registration generations let through.
//
// Four bytes make one event: kind, session, node, parameter. Events are
// 0.1–1.6 s apart except the silences, which outlast the expiry horizon.
func stateScript(t *testing.T, label string, script []byte, batched bool) (stats scriptStats) {
	t.Helper()
	const sessions, leaves = 3, 24
	// Sparse and out of order: slots are created in neither node nor
	// session order, so the visiting order has to be rebuilt to stay sorted.
	rxNodes := []netsim.NodeID{22, 3, 19, 7, 24, 8, 23, 15, 11}

	e := sim.NewEngine(1)
	n := netsim.New(e)
	hub := n.AddNode("ctrl")
	wide := netsim.LinkConfig{Bandwidth: 1e9, Delay: sim.Millisecond, QueueLimit: 4096}
	for i := 0; i < leaves; i++ {
		n.Connect(hub, n.AddNode("leaf"), wide)
	}
	d := mcast.NewDomain(n)
	var sess []int
	for s := 0; s < sessions; s++ {
		sess = append(sess, s)
		g := d.RegisterGroup(s, 1, hub.ID)
		// Every leaf sits on every session's tree for good, so the
		// algorithm prescribes for all of them every pass and the fan-out's
		// registered-only filter is what decides who is instructed.
		for _, rx := range rxNodes {
			d.Join(rx, g, nopMember{})
		}
	}
	tool := topodisc.NewTool(n, d, sess)
	alg := core.New(core.NewConfig(source.Rates(6)), rand.New(rand.NewSource(1)))
	c := New(n, d, hub, tool, alg)
	if batched {
		c.EnableAggregation()
	}
	ref := newRefState()

	var wire []sent
	n.AttachProbe(&netsim.FuncProbe{OnEnqueue: func(l *netsim.Link, p *netsim.Packet) {
		if l.From != hub.ID {
			return
		}
		switch pl := p.Payload.(type) {
		case *report.Suggestion:
			wire = append(wire, sent{pl.Session, pl.Node, pl.Level})
		case *report.SuggestionBatch:
			for _, en := range pl.Entries {
				wire = append(wire, sent{en.Session, en.Node, en.Level})
			}
		}
	}})

	passes := 0
	c.OnStep = func(now sim.Time, in core.Input, out []core.Suggestion) {
		passes++
		want := ref.pass(now, 5*c.interval)
		if !slices.Equal(in.Reports, want) { // the pass reuses its slice: empty, not nil
			t.Fatalf("%s: pass %d at %v: reports\n got  %+v\n want %+v", label, passes, now, in.Reports, want)
		}
		for s := 0; s < sessions; s++ {
			if got := c.PassDepartures(s); got != ref.departed[s] {
				t.Fatalf("%s: pass %d: session %d departures = %d, want %d", label, passes, s, got, ref.departed[s])
			}
			delete(ref.departed, s)
		}
		type target struct {
			sent
			gen uint64
		}
		var targets []target
		var first []sent
		for _, sg := range out {
			if gen, ok := ref.registered[receiverKey{sg.Session, sg.Node}]; ok {
				targets = append(targets, target{sent{sg.Session, sg.Node, sg.Level}, gen})
				first = append(first, sent{sg.Session, sg.Node, sg.Level})
			}
		}
		if !sameSent(wire, first, batched) {
			t.Fatalf("%s: pass %d at %v: suggestions sent\n got  %+v\n want %+v", label, passes, now, wire, first)
		}
		stats.sent += len(first)
		wire = wire[:0]
		// The controller scheduled its resends before calling OnStep, so at
		// the same instant they fire ahead of this check.
		pass := passes
		e.Schedule(c.interval/2, func() {
			var again []sent
			for _, tg := range targets {
				if ref.registered[receiverKey{tg.session, tg.node}] == tg.gen {
					again = append(again, tg.sent)
				}
			}
			stats.resent += len(again)
			stats.suppressed += len(targets) - len(again)
			if !sameSent(wire, again, batched) {
				t.Fatalf("%s: resend of pass %d: suggestions sent\n got  %+v\n want %+v", label, pass, wire, again)
			}
			wire = wire[:0]
		})
	}

	at := sim.Time(0)
	for ; len(script) >= 4; script = script[4:] {
		kind, session := script[0]%8, int(script[1])%sessions
		idx, par := int(script[2]), int(script[3])
		node := rxNodes[idx%len(rxNodes)]
		// Odd offsets: an event never shares an instant with a pass or a
		// resend, whose order against it the two sides need not agree on.
		at += sim.Time(par%16+1)*100*sim.Millisecond + 137*sim.Microsecond
		lr := func(nd netsim.NodeID) report.LossReport {
			return report.LossReport{
				Node: nd, Session: session, Level: par%6 + 1,
				LossRate: float64(par%8) / 16, Bytes: int64(1000 + par), Interval: sim.Second,
			}
		}
		var size int
		var payload func() any
		switch kind {
		case 0:
			size, payload = report.RegisterSize, func() any {
				return &report.Register{Node: node, Session: session, Level: par%6 + 1}
			}
		case 1, 2, 3:
			size, payload = report.LossReportSize, func() any { r := lr(node); return &r }
		case 4:
			size, payload = report.AggregateBaseSize, func() any {
				ag := report.NewAggregate(session, node)
				for i := 0; i <= par%3; i++ {
					ag.Fold(lr(rxNodes[(idx+i)%len(rxNodes)]))
				}
				return ag
			}
		case 5:
			size, payload = report.DeregisterSize, func() any {
				return &report.Deregister{Node: node, Session: session}
			}
		case 6:
			at += 6 * c.interval // everyone falls silent past the horizon
			continue
		default:
			continue // a gap
		}
		when := at
		e.At(when, sim.Func(func() {
			pl := payload()
			ref.consume(pl, when) // first: the controller releases aggregates
			c.Recv(report.NewControlPacket(node, hub.ID, size, when, pl))
		}))
	}
	c.Start()
	e.RunUntil(at + 2*c.interval)
	if passes == 0 {
		t.Fatalf("%s: no pass ran", label)
	}
	var want []ReceiverID
	for k := range ref.registered {
		want = append(want, ReceiverID{Session: k.session, Node: k.node})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Session != want[j].Session {
			return want[i].Session < want[j].Session
		}
		return want[i].Node < want[j].Node
	})
	if got := c.RegisteredReceivers(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: registered at the end\n got  %+v\n want %+v", label, got, want)
	}
	stats.stale = ref.staleUsed
	return stats
}

// sameSent compares what left the controller with what should have. The
// per-receiver fan-out must match in order; the batched one groups by next
// hop, so only the set is comparable.
func sameSent(got, want []sent, batched bool) bool {
	if batched {
		got = append([]sent(nil), got...)
		sort.Slice(got, func(i, j int) bool {
			if got[i].session != got[j].session {
				return got[i].session < got[j].session
			}
			return got[i].node < got[j].node
		})
	}
	return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
}

type nopMember struct{}

func (nopMember) RecvMulticast(*netsim.Packet) {}

// randomStateScript draws a script of n events.
func randomStateScript(rng *rand.Rand, n int) []byte {
	b := make([]byte, 4*n)
	rng.Read(b)
	return b
}

// TestControllerStateMatchesReference is the dense receiver table's
// differential test against the four-map implementation it replaced.
func TestControllerStateMatchesReference(t *testing.T) {
	var total scriptStats
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := stateScript(t, fmt.Sprint("seed ", seed), randomStateScript(rng, 60+rng.Intn(200)), seed%2 == 1)
		total.sent += st.sent
		total.resent += st.resent
		total.suppressed += st.suppressed
		total.stale += st.stale
	}
	t.Logf("400 scripts: %+v", total)
	if total.sent == 0 || total.resent == 0 || total.suppressed == 0 || total.stale == 0 {
		t.Errorf("scripts never reached part of the state machine: %+v", total)
	}
}

func FuzzControllerState(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(randomStateScript(rand.New(rand.NewSource(seed)), 80), seed%2 == 1)
	}
	f.Fuzz(func(t *testing.T, script []byte, batched bool) {
		if len(script) > 4*400 {
			script = script[:4*400]
		}
		stateScript(t, "fuzz", script, batched)
	})
}
