package topology

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

func TestBuildADefaults(t *testing.T) {
	e := sim.NewEngine(1)
	b := MustGenerate(e, &AConfig{ReceiversPerSet: 3})
	if len(b.Sources) != 1 || b.Controller != b.Sources[0] {
		t.Fatal("source/controller wiring wrong")
	}
	if got := len(b.Receivers[0]); got != 6 {
		t.Fatalf("receivers = %d, want 6", got)
	}
	// Set 1 (100 Kbps) optimal 2 layers; set 2 (500 Kbps) optimal 4.
	for i := 0; i < 3; i++ {
		if b.Optimal[0][i] != 2 {
			t.Errorf("set1 optimal[%d] = %d, want 2", i, b.Optimal[0][i])
		}
		if b.Optimal[0][3+i] != 4 {
			t.Errorf("set2 optimal[%d] = %d, want 4", i, b.Optimal[0][3+i])
		}
	}
	if len(b.Bottlenecks) != 2 {
		t.Errorf("bottlenecks = %d, want 2", len(b.Bottlenecks))
	}
	// Path latency src -> receiver = 3 hops x 200ms = 600ms, the paper's
	// quoted maximum.
	for _, rx := range b.AllReceivers() {
		if d := b.Net.PathDelay(b.Sources[0].ID, rx.ID); d != 600*sim.Millisecond {
			t.Errorf("path delay to %v = %v, want 600ms", rx, d)
		}
	}
}

func TestBuildACustomBandwidths(t *testing.T) {
	e := sim.NewEngine(1)
	b := MustGenerate(e, &AConfig{ReceiversPerSet: 1, Set1Bandwidth: 32e3, Set2Bandwidth: 2100e3})
	if b.Optimal[0][0] != 1 {
		t.Errorf("32 Kbps optimal = %d, want 1", b.Optimal[0][0])
	}
	if b.Optimal[0][1] != 6 {
		t.Errorf("2.1 Mbps optimal = %d, want 6", b.Optimal[0][1])
	}
}

func TestBuildB(t *testing.T) {
	e := sim.NewEngine(1)
	b := MustGenerate(e, &BConfig{Sessions: 4})
	if len(b.Sources) != 4 || len(b.Receivers) != 4 {
		t.Fatalf("sessions = %d/%d", len(b.Sources), len(b.Receivers))
	}
	for s := 0; s < 4; s++ {
		if len(b.Receivers[s]) != 1 {
			t.Fatalf("session %d receivers = %d", s, len(b.Receivers[s]))
		}
		if b.Optimal[s][0] != 4 {
			t.Errorf("session %d optimal = %d, want 4", s, b.Optimal[s][0])
		}
		if d := b.Net.PathDelay(b.Sources[s].ID, b.Receivers[s][0].ID); d != 600*sim.Millisecond {
			t.Errorf("session %d path delay = %v", s, d)
		}
	}
	// Shared link capacity = 4 x 500 Kbps.
	if got := b.Bottlenecks[0].Bandwidth(); got != 2e6 {
		t.Errorf("shared capacity = %g, want 2e6", got)
	}
	if len(b.AllReceivers()) != 4 {
		t.Errorf("AllReceivers = %d", len(b.AllReceivers()))
	}
}

func TestBuildBSharedQueueScales(t *testing.T) {
	e := sim.NewEngine(1)
	b := MustGenerate(e, &BConfig{Sessions: 8})
	if got := b.Bottlenecks[0].QueueLimit; got != 8*DefaultQueueLimit {
		t.Errorf("shared queue = %d, want %d", got, 8*DefaultQueueLimit)
	}
}

func TestBuildTiered(t *testing.T) {
	e := sim.NewEngine(1)
	b := MustGenerate(e, &TieredConfig{
		Seed:             7,
		FanOut:           []int{2, 3},
		Bandwidth:        []float64{10e6, 400e3},
		ReceiversPerLeaf: 2,
	})
	if got := len(b.Receivers[0]); got != 2*3*2 {
		t.Fatalf("receivers = %d, want 12", got)
	}
	for i, opt := range b.Optimal[0] {
		if opt < 1 || opt > 6 {
			t.Errorf("optimal[%d] = %d out of range", i, opt)
		}
	}
	// The 400 Kbps ±25% tier caps everyone at 3 or 4 layers.
	for i, opt := range b.Optimal[0] {
		if opt > 4 {
			t.Errorf("optimal[%d] = %d, want <= 4 given the 400k tier", i, opt)
		}
	}
	if len(b.Bottlenecks) == 0 {
		t.Error("no bottleneck links recorded")
	}
}

func TestBuildTieredDeterministic(t *testing.T) {
	build := func() []int {
		e := sim.NewEngine(1)
		b := MustGenerate(e, &TieredConfig{Seed: 42, FanOut: []int{2, 2}, Bandwidth: []float64{5e6, 300e3}, ReceiversPerLeaf: 1})
		return b.Optimal[0]
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different topologies: %v vs %v", a, b)
		}
	}
}

func TestBuildTieredValidation(t *testing.T) {
	e := sim.NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched config")
		}
	}()
	MustGenerate(e, &TieredConfig{FanOut: []int{2}, Bandwidth: nil})
}

func TestBuildsAreRoutable(t *testing.T) {
	// Every registered generator, at its defaults, must yield a build that
	// is fully connected and routable both ways between each session's
	// source and its receivers, with sane session wiring and recorded
	// bottlenecks.
	for _, gen := range Generators() {
		t.Run(gen.Name, func(t *testing.T) {
			e := sim.NewEngine(1)
			b := MustGenerate(e, gen.New())
			if len(b.Sources) == 0 || b.Controller == nil {
				t.Fatal("no sources or controller")
			}
			if len(b.Receivers) != len(b.Sources) || len(b.Optimal) != len(b.Sources) {
				t.Fatalf("sessions mismatched: %d sources, %d receiver sets, %d optima sets",
					len(b.Sources), len(b.Receivers), len(b.Optimal))
			}
			if len(b.AllReceivers()) == 0 {
				t.Fatal("no receivers")
			}
			if len(b.Bottlenecks) == 0 {
				t.Error("no bottleneck links recorded")
			}
			for s, src := range b.Sources {
				if len(b.Receivers[s]) != len(b.Optimal[s]) {
					t.Fatalf("session %d: %d receivers vs %d optima", s, len(b.Receivers[s]), len(b.Optimal[s]))
				}
				for i, rx := range b.Receivers[s] {
					if b.Net.NextHop(rx.ID, src.ID) == netsim.NoNode {
						t.Errorf("no route rx %v -> src %v", rx, src)
					}
					if b.Net.NextHop(src.ID, rx.ID) == netsim.NoNode {
						t.Errorf("no route src %v -> rx %v", src, rx)
					}
					if opt := b.Optimal[s][i]; opt < 1 {
						t.Errorf("optimal[%d][%d] = %d, want >= 1", s, i, opt)
					}
				}
			}
			// Full connectivity: the controller reaches every node.
			for _, node := range b.Net.Nodes() {
				if node != b.Controller && b.Net.NextHop(b.Controller.ID, node.ID) == netsim.NoNode {
					t.Errorf("controller cannot reach %v", node)
				}
			}
		})
	}
}

// describe writes down everything a build hands the experiments: nodes in
// order, every link's capacity, delay and queue limit, the sessions'
// sources, receivers and optima, the bottlenecks and the domain labels.
func describe(b *Build) string {
	var s strings.Builder
	for _, n := range b.Net.Nodes() {
		fmt.Fprintf(&s, "node %d %s\n", n.ID, n.Name)
	}
	for _, l := range b.Net.Links() {
		fmt.Fprintf(&s, "link %d-%d %g %v %d\n", l.From, l.To, l.Bandwidth(), l.Delay, l.QueueLimit)
	}
	fmt.Fprintf(&s, "controller %d\n", b.Controller.ID)
	for i, src := range b.Sources {
		fmt.Fprintf(&s, "session %d source %d optima %v receivers", i, src.ID, b.Optimal[i])
		for _, rx := range b.Receivers[i] {
			fmt.Fprintf(&s, " %d", rx.ID)
		}
		s.WriteString("\n")
	}
	for _, l := range b.Bottlenecks {
		fmt.Fprintf(&s, "bottleneck %d-%d\n", l.From, l.To)
	}
	fmt.Fprintf(&s, "domains %v\n", b.Domains)
	return s.String()
}

func generateSpec(t *testing.T, spec string) string {
	t.Helper()
	_, cfg, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return describe(MustGenerate(sim.NewEngine(1), cfg))
}

// TestBuildsDeterministic builds every registered generator at its
// defaults, and the keys that change a family's shape, twice each and
// demands identical builds — the property seeded experiments rely on.
func TestBuildsDeterministic(t *testing.T) {
	for _, spec := range append(Names(), "b,sessions=2,churnrx=true", "lastmile,tier=1", "lastmile,tier=2", "tree,jitter=0.3,seed=5") {
		t.Run(spec, func(t *testing.T) {
			if first, second := generateSpec(t, spec), generateSpec(t, spec); first != second {
				t.Fatalf("two builds differ:\n%s\nvs\n%s", first, second)
			}
		})
	}
}

// TestListedDefaultsApply sets every key of every family to the default
// `-topo list` shows for it and demands the same build as leaving the key
// out: a listed default that is not the applied one fails here.
func TestListedDefaultsApply(t *testing.T) {
	for _, gen := range Generators() {
		want := generateSpec(t, gen.Name)
		for _, k := range gen.New().keys() {
			spec := gen.Name + "," + k.name() + "=" + k.def()
			if got := generateSpec(t, spec); got != want {
				t.Errorf("%s builds differently from %s:\n%s\nvs\n%s", spec, gen.Name, got, want)
			}
		}
	}
}

func TestParseSpecs(t *testing.T) {
	// A valid spec with keys round-trips into a validated config.
	for _, good := range []struct {
		spec, name string
		want       Config
	}{
		{"tree,depth=2,branch=3,rxleaf=4", "tree", &TreeConfig{Depth: 2, Branch: 3, ReceiversPerLeaf: 4}},
		{"b,sessions=2,churnrx=true", "b", &BConfig{Sessions: 2, ChurnReceivers: true}},
		{"ladder", "ladder", &LadderConfig{}},
		{"lastmile,tier=1", "lastmile", &LastMileConfig{Tier: 1}},
		{"domains", "domains", &DomainsConfig{}},
	} {
		gen, cfg, err := Parse(good.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", good.spec, err)
			continue
		}
		if gen.Name != good.name {
			t.Errorf("Parse(%q): generator = %q, want %s", good.spec, gen.Name, good.name)
		}
		if fmt.Sprintf("%#v", cfg) != fmt.Sprintf("%#v", good.want) {
			t.Errorf("Parse(%q): config = %#v, want %#v", good.spec, cfg, good.want)
		}
	}
	for _, bad := range []string{
		"nosuch",           // unknown generator
		"tree,depth",       // not key=val
		"tree,nosuchkey=1", // unknown key
		"tree,depth=x",     // unparseable value
		"star,jitter=2",    // out of range [0, 1)
		"mesh,routers=2",   // out of range (ring needs 3)
		"tiered,fanout=2",  // bandwidth list length mismatch
		"tiered,fanout=2:0",
		"b,churnrx=maybe", // unparseable boolean
		"lastmile,tier=4", // three tiers
		"ladder,sets=5",   // fixed shape: no keys
		"a,layers=63",     // more layers than the source model has
		// An explicit zero is not "the default", and NaN, ±Inf and
		// delays a sim.Time cannot hold are not values.
		"tree,depth=1,branch=2,rxleaf=0",
		"a,rxset=0,bw1=0",
		"a,bw1=0",
		"star,arms=2,rxarm=1,bw=NaN",
		"tree,depth=1,branch=2,leaf=Inf",
		"tree,backbone=-Inf",
		"star,jitter=NaN",
		"a,delay=NaN",
		"a,delay=0",
		"a,delay=1e-7",
		"a,delay=1e20",
	} {
		_, _, err := Parse(bad)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		} else if family, _, _ := strings.Cut(bad, ","); !strings.Contains(err.Error(), family) {
			t.Errorf("Parse(%q): error %q does not name the family", bad, err)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	e := sim.NewEngine(1)
	for name, cfg := range map[string]Config{
		"a-negative-rx":     &AConfig{ReceiversPerSet: -1},
		"a-bad-layers":      &AConfig{Layers: 99},
		"b-negative-rate":   &BConfig{PerSession: -1},
		"star-bad-jitter":   &StarConfig{Jitter: 1.5},
		"star-nan-bw":       &StarConfig{Bandwidth: math.NaN()},
		"mesh-tiny-ring":    &MeshConfig{Routers: 2},
		"tree-negative":     &TreeConfig{Depth: -1},
		"linear-negative":   &LinearConfig{Chains: -1},
		"tiered-mismatched": &TieredConfig{FanOut: []int{2}, Bandwidth: nil},
	} {
		if _, err := Generate(e, cfg); err == nil {
			t.Errorf("%s: Generate succeeded, want validation error", name)
		}
	}
}

// TestNodeNames: names written through the shared buffer read exactly
// what fmt.Sprintf would, and stay intact after the buffer they sit in is
// left behind for the next (5 000 names cross many buffers), including a
// name longer than the room a buffer keeps.
func TestNodeNames(t *testing.T) {
	var nm names
	var got, want []string
	long := strings.Repeat("x", 100)
	for i := 0; i < 5000; i++ {
		got = append(got, nm.s("k").d(i%7).s("-").d(i*7919).end())
		want = append(want, fmt.Sprintf("k%d-%d", i%7, i*7919))
		if i%997 == 0 {
			got = append(got, nm.s(long).s("-rx").d(-i).end())
			want = append(want, fmt.Sprintf("%s-rx%d", long, -i))
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("name %d reads %q, want %q", i, got[i], want[i])
		}
	}
	if n := testing.AllocsPerRun(100, func() { nm.s("arm").d(12).s("-rx").d(3).end() }); n > 0.05 {
		t.Errorf("a name costs %.2f allocations, want a share of a buffer's", n)
	}
}
