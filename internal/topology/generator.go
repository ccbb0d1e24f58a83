package topology

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"toposense/internal/sim"
)

// Config is a validated, buildable topology parameterization. Every
// generator family (Topology A, B, the tiered Internet, and the large-scale
// star/mesh/tree/linear families) exposes one Config type. Zero-valued
// fields always mean "use the documented default" and are valid; Validate
// rejects everything else that cannot be built, loudly, instead of the old
// normalize() behaviour of silently clamping bad values.
type Config interface {
	// Validate reports the first problem with the configuration, or nil.
	Validate() error
	// Generate builds the topology on the scheduler — a plain sim.Engine
	// or a sim.ShardedEngine. Call it only after a successful Validate
	// (the package-level Generate does both).
	Generate(e sim.Scheduler) (*Build, error)
}

// Key is one CLI-settable parameter of a generator, used by the -topo
// name,key=val,... syntax. Set parses val into the matching field of cfg.
type Key struct {
	Name  string
	Usage string
	Set   func(cfg Config, val string) error
}

// Generator is one named topology family in the registry.
type Generator struct {
	// Name is the registry key ("a", "b", "tiered", "star", ...).
	Name string
	// Title is a one-line description for help output.
	Title string
	// New returns a zero config of the family's Config type.
	New func() Config
	// Keys lists the parameters settable through a spec string.
	Keys []Key
	// Labelled reports that the family emits Build.Domains, the labels the
	// scoped control planes build one controller per domain from.
	Labelled bool
}

// registry holds every registered generator by name.
var registry = map[string]Generator{}

// Register adds a generator to the registry. It panics on an empty or
// duplicate name or a nil constructor — registration happens in init and a
// bad entry is a programming error.
func Register(g Generator) {
	if g.Name == "" || g.New == nil {
		panic("topology: Register needs a name and a New constructor")
	}
	if _, dup := registry[g.Name]; dup {
		panic(fmt.Sprintf("topology: generator %q registered twice", g.Name))
	}
	registry[g.Name] = g
}

// Get looks up a registered generator by name.
func Get(name string) (Generator, bool) {
	g, ok := registry[name]
	return g, ok
}

// Names returns the registered generator names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Generators returns every registered generator, sorted by name.
func Generators() []Generator {
	names := Names()
	out := make([]Generator, 0, len(names))
	for _, name := range names {
		out = append(out, registry[name])
	}
	return out
}

// Parse resolves a spec string of the form "name" or "name,key=val,..."
// against the registry, returning the generator and a validated config.
// List-valued keys separate elements with ':' (e.g. "fanout=2:3").
func Parse(spec string) (Generator, Config, error) {
	parts := strings.Split(spec, ",")
	name := strings.TrimSpace(parts[0])
	gen, ok := Get(name)
	if !ok {
		return Generator{}, nil, fmt.Errorf("topology: unknown generator %q (have %s)", name, strings.Join(Names(), ", "))
	}
	cfg := gen.New()
	for _, part := range parts[1:] {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return Generator{}, nil, fmt.Errorf("topology: %s: %q is not key=val", name, part)
		}
		key, ok := gen.key(strings.TrimSpace(kv[0]))
		if !ok {
			return Generator{}, nil, fmt.Errorf("topology: %s has no key %q (have %s)", name, kv[0], gen.keyNames())
		}
		if err := key.Set(cfg, strings.TrimSpace(kv[1])); err != nil {
			return Generator{}, nil, fmt.Errorf("topology: %s,%s: %w", name, part, err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return Generator{}, nil, err
	}
	return gen, cfg, nil
}

func (g Generator) key(name string) (Key, bool) {
	for _, k := range g.Keys {
		if k.Name == name {
			return k, true
		}
	}
	return Key{}, false
}

func (g Generator) keyNames() string {
	names := make([]string, len(g.Keys))
	for i, k := range g.Keys {
		names[i] = k.Name
	}
	return strings.Join(names, ", ")
}

// Generate validates cfg and builds the topology on e.
func Generate(e sim.Scheduler, cfg Config) (*Build, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg.Generate(e)
}

// MustGenerate is Generate panicking on error — the Must* convention the
// Scenario builder uses. The deprecated Build* wrappers funnel through it,
// so a config the old normalize() would have silently clamped now fails
// loudly.
func MustGenerate(e sim.Scheduler, cfg Config) *Build {
	b, err := Generate(e, cfg)
	if err != nil {
		panic("topology: " + err.Error())
	}
	return b
}

// Usage renders every registered generator with its keys — the CLI's
// `-topo list` output, built from the registry itself.
func Usage() string {
	var b strings.Builder
	for _, g := range Generators() {
		fmt.Fprintf(&b, "%-8s %s\n", g.Name, g.Title)
		for _, k := range g.Keys {
			fmt.Fprintf(&b, "  %-14s %s\n", k.Name, k.Usage)
		}
	}
	return b.String()
}

// key builds a Key whose setter only accepts the generator's own Config
// type; a mismatch means the registry entry was assembled wrong.
func key[C Config](name, usage string, set func(c C, val string) error) Key {
	return Key{Name: name, Usage: usage, Set: func(cfg Config, val string) error {
		c, ok := cfg.(C)
		if !ok {
			return fmt.Errorf("key %s: config is %T, want %T", name, cfg, *new(C))
		}
		return set(c, val)
	}}
}

// The spec-string field parsers. Bandwidths accept scientific notation
// ("600e3"); durations are decimal seconds; lists are ':'-separated.

func parseInt(dst *int, val string) error {
	v, err := strconv.Atoi(val)
	if err != nil {
		return fmt.Errorf("want an integer, got %q", val)
	}
	*dst = v
	return nil
}

func parseInt64(dst *int64, val string) error {
	v, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return fmt.Errorf("want an integer, got %q", val)
	}
	*dst = v
	return nil
}

func parseBool(dst *bool, val string) error {
	v, err := strconv.ParseBool(val)
	if err != nil {
		return fmt.Errorf("want true or false, got %q", val)
	}
	*dst = v
	return nil
}

func parseFloat(dst *float64, val string) error {
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("want a number, got %q", val)
	}
	*dst = v
	return nil
}

func parseSeconds(dst *sim.Time, val string) error {
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("want seconds as a number, got %q", val)
	}
	*dst = sim.FromSeconds(v)
	return nil
}

func parseInts(dst *[]int, val string) error {
	var out []int
	for _, part := range strings.Split(val, ":") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("want ':'-separated integers, got %q", val)
		}
		out = append(out, v)
	}
	*dst = out
	return nil
}

func parseFloats(dst *[]float64, val string) error {
	var out []float64
	for _, part := range strings.Split(val, ":") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return fmt.Errorf("want ':'-separated numbers, got %q", val)
		}
		out = append(out, v)
	}
	*dst = out
	return nil
}
