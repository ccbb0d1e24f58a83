package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
	if c.Name() != "x" {
		t.Errorf("Name = %q", c.Name())
	}
	if again := r.Counter("x"); again != c {
		t.Error("re-registration returned a different counter")
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Value() != 0 || c.Name() != "" {
		t.Error("nil counter not inert")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Name() != "" {
		t.Error("nil histogram not inert")
	}
	var rec *Recorder
	rec.Record(Event{})
	if rec.Total() != 0 || rec.Cap() != 0 || rec.Events() != nil {
		t.Error("nil recorder not inert")
	}
	if err := rec.WriteLog(&bytes.Buffer{}); err != nil {
		t.Errorf("nil recorder WriteLog: %v", err)
	}
	var a *Audit
	a.Add(AuditPass{})
	if a.Total() != 0 || a.Passes() != nil {
		t.Error("nil audit not inert")
	}
	var o *Obs
	o.ObserveEngine(sim.NewEngine(1))
	if o.Dump() != nil {
		t.Error("nil Obs Dump should be nil")
	}
	var reg *Registry
	if reg.Counter("x") != nil || reg.Histogram("y", nil) != nil {
		t.Error("nil registry should hand out nil instruments")
	}
	if reg.Counters() != nil || reg.Histograms() != nil {
		t.Error("nil registry enumerations should be nil")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d", h.Count())
	}
	want := []int64{2, 1, 1, 2} // <=1, <=10, <=100, overflow
	for i, w := range want {
		if h.counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, h.counts[i], w)
		}
	}
	if h.min != 0.5 || h.max != 5000 {
		t.Errorf("min/max = %g/%g", h.min, h.max)
	}
	if got, w := h.Mean(), h.Sum()/6; got != w {
		t.Errorf("Mean = %g, want %g", got, w)
	}
}

func TestRegistryCrossTypePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a")
	r.Histogram("b", []float64{1})
	r.CounterFunc("d", func() int64 { return 0 })
	for _, f := range []func(){
		func() { r.Histogram("a", []float64{1}) },
		func() { r.Counter("b") },
		func() { r.Histogram("c", []float64{2, 1}) },
		func() { r.CounterFunc("a", func() int64 { return 0 }) },
		func() { r.CounterFunc("d", func() int64 { return 0 }) },
		func() { r.Counter("d") },
		func() { r.Histogram("d", []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestRegistrySortedEnumeration(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta")
	var kept int64
	r.CounterFunc("beta", func() int64 { return kept })
	r.Counter("alpha")
	r.Histogram("mid", []float64{1})
	cs := r.Counters()
	if len(cs) != 3 || cs[0].Name() != "alpha" || cs[1].Name() != "beta" || cs[2].Name() != "zeta" {
		t.Errorf("counters not sorted: %v, %v, %v", cs[0].Name(), cs[1].Name(), cs[2].Name())
	}
	// A CounterFunc is read when asked, not when registered.
	kept = 7
	if got := cs[1].Value(); got != 7 {
		t.Errorf("CounterFunc Value = %d, want the owner's current count 7", got)
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Record(Event{Seq: int64(i)})
	}
	if r.Total() != 5 || r.Cap() != 3 {
		t.Fatalf("total/cap = %d/%d", r.Total(), r.Cap())
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d", len(evs))
	}
	for i, want := range []int64{2, 3, 4} {
		if evs[i].Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, evs[i].Seq, want)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3 events retained of 5 recorded") {
		t.Errorf("log header missing: %q", buf.String())
	}
}

func TestAuditRingAndNumbering(t *testing.T) {
	a := NewAudit(2)
	for i := 0; i < 3; i++ {
		a.Add(AuditPass{At: sim.Time(i) * sim.Second, Receivers: []AuditEntry{{Node: i}}})
	}
	if a.Total() != 3 {
		t.Fatalf("Total = %d", a.Total())
	}
	ps := a.Passes()
	if len(ps) != 2 || ps[0].Pass != 2 || ps[1].Pass != 3 {
		t.Fatalf("passes = %+v", ps)
	}
	if ps[1].AtSeconds != 2 {
		t.Errorf("AtSeconds = %g", ps[1].AtSeconds)
	}
	var buf bytes.Buffer
	if err := a.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pass 3 at 2.000s") {
		t.Errorf("log missing pass line: %q", buf.String())
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := map[EventKind]string{
		EvEnqueue: "enqueue", EvDrop: "drop", EvDeliver: "deliver",
		EvGraft: "graft", EvPrune: "prune", EvRepair: "repair", EvPass: "pass",
		EventKind(99): "kind(99)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestDumpJSONAndCSV(t *testing.T) {
	e := sim.NewEngine(7)
	o := New()
	o.Rec, o.Audit = NewRecorder(8), NewAudit(4)
	o.ObserveEngine(e)
	o.Reg.CounterFunc("mcast_grafts", func() int64 { return 3 })
	o.QueueDepth.Observe(2)
	o.QueueDepth.Observe(100)
	o.Rec.Record(Event{At: sim.Second, Kind: EvGraft, From: 1, To: 2, Session: 0, Seq: 5})
	o.Audit.Add(AuditPass{At: 2 * sim.Second, Topologies: 1,
		Receivers: []AuditEntry{{Node: 4, Session: 0, Level: 2, Loss: 0.25, Parent: 1, OnTree: true, Prescribed: 3}}})

	d := o.Dump()
	var js bytes.Buffer
	if err := d.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	// Round-trips as valid JSON (including the "+Inf" bucket bound).
	var back map[string]any
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	for _, want := range []string{`"mcast_grafts"`, `"+Inf"`, `"kind": "graft"`, `"prescribed": 3`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("JSON missing %s", want)
		}
	}

	var cs bytes.Buffer
	if err := d.WriteCSV(&cs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cs.String(), "counter,mcast_grafts,3") {
		t.Errorf("CSV missing counter row:\n%s", cs.String())
	}
	if !strings.Contains(cs.String(), "bucket,link_queue_depth,+Inf,2") {
		t.Errorf("CSV missing overflow bucket row:\n%s", cs.String())
	}
}

// TestBucketDumpRoundTrip: a marshalled dump must unmarshal back into the
// same typed buckets, "+Inf" bound included — consumers of -obs exports
// parse with the same types.
func TestBucketDumpRoundTrip(t *testing.T) {
	in := []BucketDump{{LE: 4, Count: 2}, {LE: math.Inf(1), Count: 7}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []BucketDump
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if len(out) != 2 || out[0] != in[0] || !math.IsInf(out[1].LE, 1) || out[1].Count != 7 {
		t.Errorf("round-trip mismatch: %v -> %v", in, out)
	}
}

func TestDumpCumulativeBuckets(t *testing.T) {
	o := New()
	o.Rec, o.Audit = nil, nil
	for _, v := range []float64{0, 1, 3, 9, 1e9} {
		o.QueueDepth.Observe(v)
	}
	d := o.Dump()
	var qd *HistogramDump
	for i := range d.Histograms {
		if d.Histograms[i].Name == "link_queue_depth" {
			qd = &d.Histograms[i]
		}
	}
	if qd == nil {
		t.Fatal("link_queue_depth not exported")
	}
	last := qd.Buckets[len(qd.Buckets)-1]
	if last.Count != qd.Count {
		t.Errorf("overflow cumulative count %d != total %d", last.Count, qd.Count)
	}
	for i := 1; i < len(qd.Buckets); i++ {
		if qd.Buckets[i].Count < qd.Buckets[i-1].Count {
			t.Errorf("bucket counts not cumulative at %d", i)
		}
	}
	if d.Flight != nil || d.Audit != nil {
		t.Error("disabled recorders leaked into the dump")
	}
}

// netProbeRig runs a tiny congested line network with a NetProbe attached.
func netProbeRig(t *testing.T) (*sim.Engine, *Obs, *netsim.Link) {
	t.Helper()
	e := sim.NewEngine(1)
	n := netsim.New(e)
	a := n.AddNode("a")
	b := n.AddNode("b")
	// 1000B at 8e5 bps = 10ms serialization; queue limit 2.
	n.Connect(a, b, netsim.LinkConfig{Bandwidth: 8e5, Delay: 5 * sim.Millisecond, QueueLimit: 2})

	o := New()
	o.Rec, o.Audit = NewRecorder(64), nil
	n.AttachProbe(NewNetProbe(o))
	o.ObserveEngine(e)

	for i := 0; i < 5; i++ {
		a.SendUnicast(&netsim.Packet{Kind: netsim.Control, Src: a.ID, Dst: b.ID,
			Group: netsim.NoGroup, Size: 1000, Seq: int64(i)})
	}
	e.Run()
	return e, o, a.LinkTo(b.ID)
}

func TestNetProbeCountsMatchLinkStats(t *testing.T) {
	_, o, link := netProbeRig(t)
	st := link.Stats()
	if got := o.Enqueues.Value(); got != int64(st.Enqueued) {
		t.Errorf("Enqueues = %d, link says %d", got, st.Enqueued)
	}
	if got := o.Delivers.Value(); got != int64(st.Delivered) {
		t.Errorf("Delivers = %d, link says %d", got, st.Delivered)
	}
	if got := o.DropsQueue.Value(); got != int64(st.Dropped) {
		t.Errorf("DropsQueue = %d, link says %d", got, st.Dropped)
	}
	if o.DropsDown.Value() != 0 {
		t.Errorf("DropsDown = %d on a healthy link", o.DropsDown.Value())
	}
	// All five were control packets.
	if got := o.DropsControl.Value(); got != o.DropsQueue.Value() {
		t.Errorf("DropsControl = %d, want %d", got, o.DropsQueue.Value())
	}
}

func TestNetProbeLatency(t *testing.T) {
	_, o, _ := netProbeRig(t)
	// First packet: 10ms serialization + 5ms propagation = 15ms, no queuing.
	// Later packets queue behind it, so latencies are 15, 25, 35 ms.
	if got := o.LinkLatency.Count(); got != 3 {
		t.Fatalf("latency observations = %d, want 3", got)
	}
	if got := o.LinkLatency.Sum(); got != 15+25+35 {
		t.Errorf("latency sum = %g ms, want 75", got)
	}
	// Every deliver event carries its latency in Aux (microseconds).
	var delivers []Event
	for _, ev := range o.Rec.Events() {
		if ev.Kind == EvDeliver {
			delivers = append(delivers, ev)
		}
	}
	if len(delivers) != 3 {
		t.Fatalf("deliver events = %d", len(delivers))
	}
	if delivers[0].Aux != int64(15*sim.Millisecond) {
		t.Errorf("first deliver Aux = %dµs, want %d", delivers[0].Aux, int64(15*sim.Millisecond))
	}
}

func TestNetProbeLinkDownCause(t *testing.T) {
	e := sim.NewEngine(1)
	n := netsim.New(e)
	a := n.AddNode("a")
	b := n.AddNode("b")
	l, _ := n.Connect(a, b, netsim.LinkConfig{Bandwidth: 8e5, Delay: 0})
	o := New()
	o.Rec, o.Audit = NewRecorder(8), nil
	n.AttachProbe(NewNetProbe(o))
	l.SetDown()
	// Offer the packet straight to the failed link, as cached multicast
	// forwarding state would (routing no longer points at it).
	l.Send(&netsim.Packet{Kind: netsim.Data, Src: a.ID, Dst: b.ID,
		Group: netsim.NoGroup, Size: 100})
	e.Run()
	if o.DropsDown.Value() != 1 || o.DropsQueue.Value() != 0 {
		t.Errorf("down/queue drops = %d/%d, want 1/0", o.DropsDown.Value(), o.DropsQueue.Value())
	}
	if o.DropsData.Value() != 1 {
		t.Errorf("DropsData = %d, want 1", o.DropsData.Value())
	}
	evs := o.Rec.Events()
	if len(evs) != 1 || evs[0].Kind != EvDrop || evs[0].Aux != DropLinkDown {
		t.Errorf("drop event = %+v", evs)
	}
}

func TestZeroAllocHotPath(t *testing.T) {
	o := New()
	o.Rec, o.Audit = NewRecorder(16), nil
	c := o.Enqueues
	h := o.QueueDepth
	rec := o.Rec
	ev := Event{Kind: EvGraft, From: 1, To: 2}

	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %g/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %g/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { rec.Record(ev) }); n != 0 {
		t.Errorf("Recorder.Record allocates %g/op", n)
	}

	var nc *Counter
	var nh *Histogram
	var nr *Recorder
	if n := testing.AllocsPerRun(1000, func() { nc.Inc(); nh.Observe(1); nr.Record(ev) }); n != 0 {
		t.Errorf("nil instrument path allocates %g/op", n)
	}
}

// TestSplitRecorderMerge: a split recorder's export depends only on what
// each context recorded, not on how the contexts interleaved. Events merge
// by time, then context, then order within the context, and the merge keeps
// the newest Cap of them.
func TestSplitRecorderMerge(t *testing.T) {
	type rec struct {
		ctx int
		ev  Event
	}
	// Context 0 (global) and two shards; shard 2 runs ahead of shard 1.
	script := []rec{
		{1, Event{At: 1, Seq: 10}}, {1, Event{At: 3, Seq: 11}}, {1, Event{At: 3, Seq: 12}},
		{2, Event{At: 2, Seq: 20}}, {2, Event{At: 3, Seq: 21}}, {2, Event{At: 5, Seq: 22}},
		{0, Event{At: 3, Seq: 0}}, {1, Event{At: 6, Seq: 13}},
	}
	want := []int64{20, 0, 11, 12, 21, 22, 13} // the newest 7 of 8
	for _, order := range [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{3, 4, 5, 0, 1, 2, 6, 7},
		{6, 3, 0, 4, 1, 5, 2, 7},
	} {
		r := NewRecorder(7)
		r.split(3)
		for _, i := range order {
			r.RecordIn(script[i].ctx, script[i].ev)
		}
		var got []int64
		for _, ev := range r.Events() {
			got = append(got, ev.Seq)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || r.Total() != 8 {
			t.Errorf("order %v: events %v of %d recorded, want %v of 8", order, got, r.Total(), want)
		}
	}
}

// TestSplitHistogramSum: a split histogram adds its partial sums in
// context order, so the total does not depend on how the contexts'
// observations interleaved, while an unsplit one keeps the plain running
// sum.
func TestSplitHistogramSum(t *testing.T) {
	vals := [][]float64{{0.1, 1e16}, {0.7, -1e16, 0.3}}
	sum := func(split bool, ctxFirst int) float64 {
		reg := NewRegistry()
		h := reg.Histogram("h", []float64{1})
		if split {
			reg.split(3)
		}
		for _, c := range []int{ctxFirst, 1 - ctxFirst} {
			for _, v := range vals[c] {
				if split {
					h.ObserveIn(1+c, v)
				} else {
					h.Observe(v)
				}
			}
		}
		return h.Sum()
	}
	if a, b := sum(true, 0), sum(true, 1); a != b {
		t.Errorf("split sums differ by interleaving: %v vs %v", a, b)
	}
	running := 0.0
	for _, v := range append(vals[0][:len(vals[0]):len(vals[0])], vals[1]...) {
		running += v
	}
	if got, want := sum(false, 0), running; got != want {
		t.Errorf("unsplit sum = %v, want the running sum %v", got, want)
	}
	if a, b := sum(false, 0), sum(false, 1); a == b {
		t.Errorf("unsplit sums agree (%v) on a script chosen to make them differ", a)
	}
}
