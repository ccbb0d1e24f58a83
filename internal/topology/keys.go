package topology

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"toposense/internal/sim"
	"toposense/internal/source"
)

// A family states each of its spec keys once, as a row of its key table:
// the config field the key sets, the key's name, its default, its allowed
// range (the row's kind) and the phrase `-topo list` prints. Parse sets
// fields through the rows, Generate fills defaults and checks ranges
// through them, and Usage lists them.

// key is one row of a family's key table, bound to one config field.
type key interface {
	name() string
	// set parses val into the field; a value outside the range is an error
	// and leaves the field as it was.
	set(val string) error
	// fill gives a zero field its default.
	fill()
	// check reports a field outside the range.
	check() error
	// usage is the row's `-topo list` text: phrase, unit and default.
	usage() string
	// def is the default as the listing writes it.
	def() string
}

// kind is how one type of field reads, bounds and writes its values.
type kind[T any] struct {
	parse func(string) (T, error)
	ok    func(T) bool // the allowed range
	want  string       // the allowed range in words, for errors
	unit  string       // follows the phrase in the listing
	note  string       // follows the default in the listing
	show  func(T) string
}

// field is the row binding one config field of type T.
type field[T any] struct {
	p      *T
	key    string
	dflt   T
	phrase string
	k      *kind[T]
}

// row declares the key name for *p with its default, listing phrase and
// kind.
func row[T any](p *T, name string, def T, phrase string, k *kind[T]) key {
	return &field[T]{p: p, key: name, dflt: def, phrase: phrase, k: k}
}

func (f *field[T]) name() string { return f.key }

func (f *field[T]) set(val string) error {
	v, err := f.k.parse(val)
	if err != nil || !f.k.ok(v) {
		return fmt.Errorf("want %s, got %q", f.k.want, val)
	}
	*f.p = v
	return nil
}

func (f *field[T]) fill() {
	if reflect.ValueOf(f.p).Elem().IsZero() {
		*f.p = f.dflt
	}
}

func (f *field[T]) check() error {
	if !f.k.ok(*f.p) {
		return fmt.Errorf("%s = %v, want %s", f.key, *f.p, f.k.want)
	}
	return nil
}

func (f *field[T]) usage() string {
	return fmt.Sprintf("%s%s (default %s%s)", f.phrase, f.k.unit, f.def(), f.k.note)
}

func (f *field[T]) def() string { return f.k.show(f.dflt) }

// lookup returns the row named name, or nil.
func lookup(keys []key, name string) key {
	for _, k := range keys {
		if k.name() == name {
			return k
		}
	}
	return nil
}

// linkKeys is the delay/queue/layers trio that closes every parameterized
// family's table; scope says what one queue limit covers.
func linkKeys(delay *sim.Time, queue, layers *int, defDelay sim.Time, scope string) []key {
	return []key{
		row(delay, "delay", defDelay, "per-link propagation delay", delays),
		row(queue, "queue", DefaultQueueLimit, scope+" queue limit in packets", counts),
		row(layers, "layers", source.DefaultLayers, "session layers", layerCounts),
	}
}

// maxSeconds is the longest delay a sim.Time holds, in whole seconds.
const maxSeconds = float64(math.MaxInt64 / sim.Second)

// The kinds. Counts start at 1, so an explicit zero is refused rather
// than read as "the default"; bandwidths are finite and positive and accept
// scientific notation ("600e3"); delays are decimal seconds.
var (
	counts      = ints(1, math.MaxInt)
	layerCounts = ints(1, 62) // source.Rates' limit
	bitrates    = &kind[float64]{
		parse: parseFloat,
		ok:    func(v float64) bool { return v > 0 && !math.IsInf(v, 1) },
		want:  "a finite bandwidth > 0",
		unit:  " in bits/s",
		show:  engineering,
	}
	fractions = &kind[float64]{
		parse: parseFloat,
		ok:    func(v float64) bool { return v >= 0 && v < 1 },
		want:  "a fraction in [0, 1)",
		unit:  " in [0,1)",
		show:  func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) },
	}
	seeds = &kind[int64]{
		parse: func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) },
		ok:    func(int64) bool { return true },
		want:  "an integer",
		show:  func(v int64) string { return strconv.FormatInt(v, 10) },
	}
	flags = &kind[bool]{
		parse: strconv.ParseBool,
		ok:    func(bool) bool { return true },
		want:  "true or false",
		show:  strconv.FormatBool,
	}
	delays = &kind[sim.Time]{
		parse: func(s string) (sim.Time, error) {
			v, err := strconv.ParseFloat(s, 64)
			if err == nil && !(math.Abs(v) <= maxSeconds) {
				err = strconv.ErrRange
			}
			return sim.FromSeconds(v), err
		},
		ok:   func(t sim.Time) bool { return t > 0 },
		want: fmt.Sprintf("seconds in [1e-06, %.3g]", maxSeconds),
		unit: " in seconds",
		show: func(t sim.Time) string { return strconv.FormatFloat(t.Seconds(), 'g', -1, 64) },
	}
)

// ints is the kind of integers in [lo, hi]; the listing names a floor
// above 1.
func ints(lo, hi int) *kind[int] {
	k := &kind[int]{
		parse: strconv.Atoi,
		ok:    func(v int) bool { return lo <= v && v <= hi },
		want:  fmt.Sprintf("an integer in [%d, %d]", lo, hi),
		show:  strconv.Itoa,
	}
	if hi == math.MaxInt {
		k.want = fmt.Sprintf("an integer >= %d", lo)
	}
	if lo > 1 {
		k.note = fmt.Sprintf(", min %d", lo)
	}
	return k
}

// list is the kind of non-empty ':'-separated lists of el.
func list[E any](el *kind[E]) *kind[[]E] {
	return &kind[[]E]{
		parse: func(s string) ([]E, error) {
			var out []E
			for _, part := range strings.Split(s, ":") {
				v, err := el.parse(strings.TrimSpace(part))
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			}
			return out, nil
		},
		ok: func(vs []E) bool {
			for _, v := range vs {
				if !el.ok(v) {
					return false
				}
			}
			return len(vs) > 0
		},
		want: "':'-separated values, each " + el.want,
		unit: el.unit,
		show: func(vs []E) string {
			parts := make([]string, len(vs))
			for i, v := range vs {
				parts[i] = el.show(v)
			}
			return strings.Join(parts, ":")
		},
	}
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// engineering writes a bandwidth with a power-of-1000 exponent, as the
// listing does: 500e3, 10e6.
func engineering(v float64) string {
	exp := 0
	for v >= 1000 {
		v /= 1000
		exp += 3
	}
	return strconv.FormatFloat(v, 'g', -1, 64) + "e" + strconv.Itoa(exp)
}
