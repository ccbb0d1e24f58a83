package topology

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"toposense/internal/sim"
)

// Config is one generator family's parameterization: Topology A, B, the
// tiered Internet, the large-scale star/mesh/tree/linear families and the
// studies' fixed shapes each have one Config type. A zero field means the
// default its family's key table lists (`toposim -topo list`); Generate
// rejects any other value outside the table's ranges, loudly.
type Config interface {
	// keys is the family's key table, bound to this config's fields.
	keys() []key
	// generate builds the topology from a settled config (every zero field
	// at its default, every field in range) on the scheduler — a plain
	// sim.Engine or a sim.ShardedEngine.
	generate(e sim.Scheduler) *Build
}

// Generator is one named topology family in the registry.
type Generator struct {
	// Name is the registry key ("a", "b", "tiered", "star", ...).
	Name string
	// Title is a one-line description for help output.
	Title string
	// New returns a zero config of the family's Config type.
	New func() Config
	// Labelled reports that the family emits Build.Domains, the labels the
	// scoped control planes build one controller per domain from.
	Labelled bool
}

// registry holds every generator in name order, the order Names,
// Generators and Usage report.
var registry = []Generator{
	{Name: "a", Title: "Topology A: two receiver sets behind different bottlenecks (paper Fig. 5)",
		New: func() Config { return &AConfig{} }},
	{Name: "b", Title: "Topology B: N sessions competing on one shared link (paper Fig. 5)",
		New: func() Config { return &BConfig{} }},
	{Name: "domains", Title: "Two domains behind one backbone, 100 and 500 Kbps, 3 receivers each (paper Fig. 3)",
		New: func() Config { return &DomainsConfig{} }, Labelled: true},
	{Name: "ladder", Title: "Layer ladder: hub arms sized for exactly 1..4 layers, 2 receivers each (convergence study)",
		New: func() Config { return &LadderConfig{} }},
	{Name: "lastmile", Title: "1-2-2 tree with one 3-layer link at a chosen tier (bottleneck-depth study)",
		New: func() Config { return &LastMileConfig{} }},
	{Name: "linear", Title: "Linear: parallel chains of routers, receivers at every hop",
		New: func() Config { return &LinearConfig{} }, Labelled: true},
	{Name: "mesh", Title: "Mesh: router ring with cross-chords, receivers on access links",
		New: func() Config { return &MeshConfig{} }},
	{Name: "star", Title: "Star: hub fanning into per-arm bottleneck access links",
		New: func() Config { return &StarConfig{} }, Labelled: true},
	{Name: "tiered", Title: "Tiered Internet: backbone fanning into slower tiers (paper Fig. 2)",
		New: func() Config { return &TieredConfig{} }, Labelled: true},
	{Name: "tree", Title: "Deep k-ary tree: bottleneck links at the deepest tier",
		New: func() Config { return &TreeConfig{} }, Labelled: true},
}

// Names returns the registered generator names, sorted.
func Names() []string {
	out := make([]string, len(registry))
	for i, g := range registry {
		out[i] = g.Name
	}
	return out
}

// Generators returns every registered generator, sorted by name.
func Generators() []Generator {
	return slices.Clone(registry)
}

// Parse resolves a spec string of the form "name" or "name,key=val,..."
// against the registry, returning the generator and a validated config
// holding exactly the keys the spec sets. List-valued keys separate
// elements with ':' (e.g. "fanout=2:3").
func Parse(spec string) (Generator, Config, error) {
	parts := strings.Split(spec, ",")
	name := strings.TrimSpace(parts[0])
	i := slices.IndexFunc(registry, func(g Generator) bool { return g.Name == name })
	if i < 0 {
		return Generator{}, nil, fmt.Errorf("topology: unknown generator %q (have %s)", name, strings.Join(Names(), ", "))
	}
	gen := registry[i]
	cfg := gen.New()
	keys := cfg.keys()
	for _, part := range parts[1:] {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return Generator{}, nil, fmt.Errorf("topology: %s: %q is not key=val", name, part)
		}
		k := lookup(keys, strings.TrimSpace(kv[0]))
		if k == nil && len(keys) == 0 {
			return Generator{}, nil, fmt.Errorf("topology: %s is a fixed shape and takes no keys (got %q)", name, kv[0])
		}
		if k == nil {
			names := make([]string, len(keys))
			for i, k := range keys {
				names[i] = k.name()
			}
			return Generator{}, nil, fmt.Errorf("topology: %s has no key %q (have %s)", name, kv[0], strings.Join(names, ", "))
		}
		if err := k.set(strings.TrimSpace(kv[1])); err != nil {
			return Generator{}, nil, fmt.Errorf("topology: %s,%s: %w", name, part, err)
		}
	}
	if _, err := settle(cfg); err != nil {
		return Generator{}, nil, fmt.Errorf("topology %s: %w", name, err)
	}
	return gen, cfg, nil
}

// Generate validates cfg and builds the topology on e.
func Generate(e sim.Scheduler, cfg Config) (*Build, error) {
	s, err := settle(cfg)
	if err != nil {
		return nil, fmt.Errorf("topology: %T: %w", cfg, err)
	}
	return s.generate(e), nil
}

// MustGenerate is Generate panicking on error — the Must* convention the
// Scenario builder uses.
func MustGenerate(e sim.Scheduler, cfg Config) *Build {
	b, err := Generate(e, cfg)
	if err != nil {
		panic(err.Error())
	}
	return b
}

// settle returns the config a family builds from: a copy of cfg with every
// zero field at its table default, every field checked against its row's
// range and the family's cross-key rules, if it has any. cfg itself is left
// as it is.
func settle(cfg Config) (Config, error) {
	v := reflect.ValueOf(cfg).Elem()
	cp := reflect.New(v.Type())
	cp.Elem().Set(v)
	s := cp.Interface().(Config)
	for _, k := range s.keys() {
		k.fill()
		if err := k.check(); err != nil {
			return nil, err
		}
	}
	if r, ok := s.(interface{ rules() error }); ok {
		if err := r.rules(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Usage renders every registered generator with its keys — the CLI's
// `-topo list` output, built from the key tables themselves.
func Usage() string {
	var b strings.Builder
	for _, g := range registry {
		fmt.Fprintf(&b, "%-8s %s\n", g.Name, g.Title)
		for _, k := range g.New().keys() {
			fmt.Fprintf(&b, "  %-14s %s\n", k.name(), k.usage())
		}
	}
	return b.String()
}
