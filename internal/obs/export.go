package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"toposense/internal/sim"
)

// Dump is the serializable snapshot of an Obs instance: every counter and
// histogram (sorted by name), the retained flight-recorder events, the
// retained audit passes, and the observed engines' scheduler stats. For a
// fixed seed a Dump is byte-identical across runs — the export never
// includes wall-clock or iteration-order-dependent data.
type Dump struct {
	Counters   []CounterDump     `json:"counters"`
	Histograms []HistogramDump   `json:"histograms"`
	Engines    []sim.EngineStats `json:"engines,omitempty"`
	// FlightTotal is how many events the recorder ever saw; Flight holds
	// the retained tail.
	FlightTotal uint64      `json:"flight_total,omitempty"`
	Flight      []EventDump `json:"flight,omitempty"`
	// AuditTotal is how many passes the audit log ever saw; Audit holds
	// the retained tail.
	AuditTotal int64       `json:"audit_total,omitempty"`
	Audit      []AuditPass `json:"audit,omitempty"`
}

// CounterDump is one counter's exported value.
type CounterDump struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramDump is one histogram's exported state. Buckets are cumulative
// counts at each upper bound, Prometheus-style, with the overflow bucket
// under +Inf.
type HistogramDump struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Mean    float64      `json:"mean"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	Buckets []BucketDump `json:"buckets"`
}

// BucketDump is one cumulative histogram bucket.
type BucketDump struct {
	LE    float64 `json:"le"` // +Inf for the overflow bucket; see MarshalJSON
	Count int64   `json:"count"`
}

// MarshalJSON renders the +Inf overflow bound as the string "+Inf", since
// JSON has no infinity literal.
func (b BucketDump) MarshalJSON() ([]byte, error) {
	le := "\"+Inf\""
	if !math.IsInf(b.LE, 1) {
		le = strconv.FormatFloat(b.LE, 'g', -1, 64)
	}
	return []byte(fmt.Sprintf(`{"le":%s,"count":%d}`, le, b.Count)), nil
}

// UnmarshalJSON accepts both a numeric bound and the "+Inf" string, so an
// exported dump round-trips.
func (b *BucketDump) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    json.RawMessage `json:"le"`
		Count int64           `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	if string(raw.LE) == `"+Inf"` {
		b.LE = math.Inf(1)
		return nil
	}
	return json.Unmarshal(raw.LE, &b.LE)
}

// EventDump is one flight-recorder event with its kind rendered as text.
type EventDump struct {
	AtSeconds float64 `json:"at_seconds"`
	Kind      string  `json:"kind"`
	From      int32   `json:"from"`
	To        int32   `json:"to"`
	Session   int32   `json:"session"`
	Layer     int32   `json:"layer"`
	Seq       int64   `json:"seq"`
	Aux       int64   `json:"aux"`
}

// Dump snapshots the Obs into its serializable form. Nil-safe.
func (o *Obs) Dump() *Dump {
	if o == nil {
		return nil
	}
	d := &Dump{}
	for _, c := range o.Reg.Counters() {
		d.Counters = append(d.Counters, CounterDump{Name: c.Name(), Value: c.Value()})
	}
	for _, h := range o.Reg.Histograms() {
		hd := HistogramDump{
			Name:  h.Name(),
			Count: h.count,
			Sum:   h.Sum(),
			Mean:  h.Mean(),
			Min:   h.min,
			Max:   h.max,
		}
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.counts[i]
			hd.Buckets = append(hd.Buckets, BucketDump{LE: b, Count: cum})
		}
		cum += h.counts[len(h.bounds)]
		hd.Buckets = append(hd.Buckets, BucketDump{LE: math.Inf(1), Count: cum})
		d.Histograms = append(d.Histograms, hd)
	}
	for _, e := range o.engines {
		d.Engines = append(d.Engines, e.Stats())
	}
	if o.Rec != nil {
		d.FlightTotal = o.Rec.Total()
		for _, ev := range o.Rec.Events() {
			d.Flight = append(d.Flight, EventDump{
				AtSeconds: ev.At.Seconds(),
				Kind:      ev.Kind.String(),
				From:      ev.From, To: ev.To,
				Session: ev.Session, Layer: ev.Layer,
				Seq: ev.Seq, Aux: ev.Aux,
			})
		}
	}
	if o.Audit != nil {
		d.AuditTotal = o.Audit.Total()
		d.Audit = o.Audit.Passes()
	}
	return d
}

// WriteJSON writes the dump to w as indented JSON.
func (d *Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteCSV writes the dump's counters and histograms as CSV, one section
// per instrument family:
//
//	counter,<name>,<value>
//	histogram,<name>,count,sum,mean,min,max
//	bucket,<name>,<le>,<cumulative count>
//
// Flight-recorder events and audit passes are structured; they export via
// JSON only.
func (d *Dump) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	fl := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, c := range d.Counters {
		if err := cw.Write([]string{"counter", c.Name, strconv.FormatInt(c.Value, 10)}); err != nil {
			return err
		}
	}
	for _, h := range d.Histograms {
		if err := cw.Write([]string{"histogram", h.Name,
			strconv.FormatInt(h.Count, 10), fl(h.Sum), fl(h.Mean), fl(h.Min), fl(h.Max)}); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			le := "+Inf"
			if !math.IsInf(b.LE, 1) {
				le = fl(b.LE)
			}
			if err := cw.Write([]string{"bucket", h.Name, le, strconv.FormatInt(b.Count, 10)}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
