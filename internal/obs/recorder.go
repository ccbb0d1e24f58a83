package obs

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"

	"toposense/internal/sim"
)

// EventKind labels one flight-recorder entry.
type EventKind uint8

// Flight-recorder event kinds. Packet events come from the network probe,
// tree events from the multicast domain, pass events from the controller.
const (
	// EvEnqueue: a link accepted a packet (From/To = link endpoints,
	// Aux = queue depth the arrival saw).
	EvEnqueue EventKind = iota
	// EvDrop: a packet was discarded (Aux = DropQueue or DropLinkDown).
	EvDrop
	// EvDeliver: a packet reached the far end of a link (Aux = the
	// link-level latency in microseconds when known, else -1).
	EvDeliver
	// EvGraft: a router grafted toward its parent (From = router,
	// To = parent).
	EvGraft
	// EvPrune: a router pruned itself from its parent (From = router,
	// To = parent).
	EvPrune
	// EvRepair: a route change re-homed (or orphaned) a router
	// (From = router, To = new parent or -1).
	EvRepair
	// EvPass: the controller ran one decision pass (Aux = suggestions
	// sent, Seq = pass number).
	EvPass
)

// Drop causes carried in EvDrop's Aux field.
const (
	// DropQueue is a drop-policy discard: queue overflow under drop-tail,
	// or the highest-layer victim under priority dropping.
	DropQueue int64 = iota
	// DropLinkDown is a loss to a failed link: rejected on arrival or
	// discarded from the queue/pipeline by SetDown.
	DropLinkDown
)

func (k EventKind) String() string {
	switch k {
	case EvEnqueue:
		return "enqueue"
	case EvDrop:
		return "drop"
	case EvDeliver:
		return "deliver"
	case EvGraft:
		return "graft"
	case EvPrune:
		return "prune"
	case EvRepair:
		return "repair"
	case EvPass:
		return "pass"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one fixed-size flight-recorder entry. Fields are generic so one
// struct covers packet, tree and controller events; which fields mean what
// is documented per EventKind. The struct is a plain value — recording is
// a copy into the ring, never an allocation.
type Event struct {
	At      sim.Time
	Kind    EventKind
	From    int32 // link source / router node; -1 when not applicable
	To      int32 // link destination / parent node; -1 when not applicable
	Session int32 // media session; -1 for non-media
	Layer   int32 // media layer; 0 for non-media
	Seq     int64 // packet sequence number / controller pass number
	Aux     int64 // kind-specific (queue depth, drop cause, latency µs, ...)
}

// Recorder is a fixed-capacity ring buffer of the most recent events — a
// flight recorder: always on once enabled, never growing, dumpable after
// the fact to reconstruct what led up to an anomaly. Record on a nil
// Recorder is a no-op, so call sites need no guard.
//
// On a sharded engine each execution context records into a ring of its
// own (Obs.Partition sets it up), so what a ring holds and in which
// order depends only on the model, never on how the shards' workers
// interleaved; Events merges the rings by (time, context, order within the
// context). A recorder that was not split keeps the one ring.
type Recorder struct {
	rings []ring // [0] alone, or [0] the global context and [1+s] shard s
}

// ring is one context's share of a Recorder. Its mutex is uncontended on a
// split recorder; it keeps an unsplit one shared by shards race-free.
type ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total uint64
}

// NewRecorder returns a recorder keeping the last capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		panic("obs: recorder capacity must be positive")
	}
	return &Recorder{rings: []ring{{buf: make([]Event, 0, capacity)}}}
}

// split gives each of contexts execution contexts a ring of the recorder's
// capacity; RecordIn's ctx picks one. Call it before anything is recorded.
func (r *Recorder) split(contexts int) {
	if r == nil || contexts <= len(r.rings) {
		return
	}
	rings := make([]ring, contexts)
	for i := range rings {
		rings[i].buf = make([]Event, 0, r.Cap())
	}
	r.rings = rings
}

// Record appends ev to context 0's ring: the only one, or the global
// context's.
func (r *Recorder) Record(ev Event) { r.RecordIn(0, ev) }

// RecordIn appends ev to context ctx's ring (see Obs.Context), evicting
// that ring's oldest entry once it is full.
func (r *Recorder) RecordIn(ctx int, ev Event) {
	if r == nil {
		return
	}
	g := &r.rings[ctx]
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.buf) < cap(g.buf) {
		g.buf = append(g.buf, ev)
	} else {
		g.buf[g.next] = ev
	}
	g.next++
	if g.next == cap(g.buf) {
		g.next = 0
	}
	g.total++
}

// Total returns how many events were ever recorded (including evicted).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for i := range r.rings {
		g := &r.rings[i]
		g.mu.Lock()
		n += g.total
		g.mu.Unlock()
	}
	return n
}

// Cap returns the ring capacity: how many events Events returns at most.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return cap(r.rings[0].buf)
}

// Events returns the retained events oldest-first, as a copy. A split
// recorder's rings merge by time, then context index, then recording order
// within the context, and the merge keeps the newest Cap events. A context
// records in time order, so its ring's newest Cap are all the merge can
// keep from it.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.rings {
		out = r.rings[i].appendEvents(out)
	}
	if len(r.rings) > 1 {
		slices.SortStableFunc(out, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
		out = out[max(0, len(out)-r.Cap()):]
	}
	return out
}

// appendEvents appends the ring's events oldest-first to out.
func (g *ring) appendEvents(out []Event) []Event {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.buf) == cap(g.buf) {
		out = append(out, g.buf[g.next:]...)
		return append(out, g.buf[:g.next]...)
	}
	return append(out, g.buf...)
}

// WriteLog renders the retained events oldest-first, one per line, in a
// stable human-readable format. Used by the -flightrec flag and the
// panic-dump path.
func (r *Recorder) WriteLog(w io.Writer) error {
	if r == nil {
		return nil
	}
	evs := r.Events()
	if _, err := fmt.Fprintf(w, "flight recorder: %d events retained of %d recorded\n", len(evs), r.Total()); err != nil {
		return err
	}
	for _, ev := range evs {
		if _, err := fmt.Fprintf(w, "%12.6f %-8s from=%d to=%d s=%d l=%d seq=%d aux=%d\n",
			ev.At.Seconds(), ev.Kind, ev.From, ev.To, ev.Session, ev.Layer, ev.Seq, ev.Aux); err != nil {
			return err
		}
	}
	return nil
}
