package toposense

import (
	"reflect"
	"strings"
	"testing"

	"toposense/internal/experiments"
)

func TestScenarioQuickstartConverges(t *testing.T) {
	sc := NewScenario(42)
	src := sc.AddNode("source")
	rtr := sc.AddNode("router")
	rxNode := sc.AddNode("receiver")
	sc.Connect(src, rtr, 100e6)
	sc.Connect(rtr, rxNode, 500e3)
	sc.Source(src)
	sc.MustController(src)
	rx := sc.MustReceiver(rxNode)
	sc.MustRun(120 * Second)
	if got := rx.Level(); got < 3 || got > 5 {
		t.Fatalf("level = %d, want ~4 for a 500 Kbps bottleneck", got)
	}
	if !strings.Contains(sc.String(), "3 nodes") {
		t.Errorf("String = %q", sc.String())
	}
	// Run is resumable.
	if err := sc.Run(180 * Second); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if sc.Engine().Now() != 180*Second {
		t.Errorf("Now = %v", sc.Engine().Now())
	}
}

func TestScenarioMultiSession(t *testing.T) {
	sc := NewScenario(7)
	x := sc.AddNode("X")
	y := sc.AddNode("Y")
	sc.Connect(x, y, 1e6) // two sessions x ~4 layers
	var rxs []*Receiver
	for i := 0; i < 2; i++ {
		srcNode := sc.AddNode("src")
		sc.Connect(srcNode, x, 100e6)
		sc.SourceWith(srcNode, SourceConfig{Session: i})
	}
	if _, err := sc.Controller(sc.Network().Nodes()[2]); err != nil { // first source node
		t.Fatalf("Controller: %v", err)
	}
	for i := 0; i < 2; i++ {
		rxNode := sc.AddNode("rx")
		sc.Connect(y, rxNode, 100e6)
		rx, err := sc.ReceiverWith(rxNode, ReceiverConfig{Session: i})
		if err != nil {
			t.Fatalf("ReceiverWith(%d): %v", i, err)
		}
		rxs = append(rxs, rx)
	}
	if err := sc.Run(240 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, rx := range rxs {
		if got := rx.Level(); got < 2 || got > 5 {
			t.Errorf("session %d level = %d", i, got)
		}
	}
}

// TestScenarioErrors pins the builder's misassembly errors: each returns an
// error (not a panic), and the Must* wrappers convert it into a panic.
func TestScenarioErrors(t *testing.T) {
	t.Run("receiver before controller", func(t *testing.T) {
		sc := NewScenario(1)
		n := sc.AddNode("n")
		if _, err := sc.Receiver(n); err == nil {
			t.Fatal("expected error")
		} else if !strings.Contains(err.Error(), "Controller before receivers") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("double controller", func(t *testing.T) {
		sc := NewScenario(1)
		n := sc.AddNode("n")
		sc.Source(n)
		if _, err := sc.Controller(n); err != nil {
			t.Fatalf("first controller: %v", err)
		}
		if _, err := sc.Controller(n); err == nil {
			t.Fatal("expected error")
		} else if !strings.Contains(err.Error(), "already has a controller") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("run without controller", func(t *testing.T) {
		sc := NewScenario(1)
		if err := sc.Run(Second); err == nil {
			t.Fatal("expected error")
		} else if !strings.Contains(err.Error(), "no controller") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("must wrappers panic", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		sc := NewScenario(1)
		n := sc.AddNode("n")
		sc.MustReceiver(n) // no controller yet
	})
	t.Run("must run panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		NewScenario(1).MustRun(Second)
	})
}

func TestDefaultLayerRates(t *testing.T) {
	r := DefaultLayerRates()
	if len(r) != 6 || r[0] != 32e3 || r[5] != 1024e3 {
		t.Errorf("DefaultLayerRates = %v", r)
	}
}

func TestScenarioAccessors(t *testing.T) {
	sc := NewScenario(1)
	if sc.Engine() == nil || sc.Network() == nil || sc.Domain() == nil {
		t.Fatal("nil accessors")
	}
	a := sc.AddNode("a")
	b := sc.AddNode("b")
	sc.ConnectWith(a, b, LinkConfig{Bandwidth: 1e6, Delay: Millisecond})
	if a.LinkTo(b.ID) == nil {
		t.Error("ConnectWith did not link")
	}
}

// TestFacadeWiringMatchesScenario builds Topology A twice — through this
// package's Scenario builder, replaying the registry's node and link list,
// and as experiments.Scenario{Topo: "a"} — and requires the same control
// wiring: the algorithm's configuration, each receiver's receiver.Config,
// and, by running both for 300 s and comparing every receiver's level each
// second and the controller's pass and suggestion counts, the discovery
// sessions and the algorithm's seed offset (its RNG draws the back-off
// jitter, so a different seed moves a decision). Intended differences, none
// of which the model sees:
//   - sourceLayers: the builder leaves source.Config.Layers 0 (the default,
//     6) where the world writes 6;
//   - traces: the world records each receiver's levels in a metrics.Trace
//     through Receiver.OnChange; the builder sets no OnChange.
func TestFacadeWiringMatchesScenario(t *testing.T) {
	const seed = 3
	w, err := experiments.Scenario{WorldConfig: experiments.WorldConfig{Seed: seed, Traffic: experiments.CBR}, Topo: "a", Duration: 300}.Assemble(&experiments.Meter{})
	if err != nil {
		t.Fatal(err)
	}
	b := w.Build

	sc := NewScenario(seed)
	nodes := make([]*Node, b.Net.NumNodes())
	for i, n := range b.Net.Nodes() {
		if nodes[i] = sc.AddNode(n.Name); nodes[i].ID != n.ID {
			t.Fatalf("node %s: ID %d in the builder, %d in the registry build", n.Name, nodes[i].ID, n.ID)
		}
	}
	for _, l := range b.Net.Links() {
		if l.From < l.To {
			sc.ConnectWith(nodes[l.From], nodes[l.To], LinkConfig{Bandwidth: l.Bandwidth(), Delay: l.Delay, QueueLimit: l.QueueLimit, Policy: l.Policy})
		}
	}
	for i, src := range b.Sources {
		sc.SourceWith(nodes[src.ID], SourceConfig{Session: i})
	}
	ctrl := sc.MustController(nodes[b.Controller.ID])
	var rxs []*Receiver
	for s, ns := range b.Receivers {
		for _, n := range ns {
			rxs = append(rxs, sc.MustReceiverWith(nodes[n.ID], ReceiverConfig{Session: s}))
		}
	}

	if got, want := ctrl.Algorithm().Config(), w.Controller.Algorithm().Config(); !reflect.DeepEqual(got, want) {
		t.Errorf("algorithm config:\n builder %+v\n   world %+v", got, want)
	}
	var wrxs []*Receiver
	for _, rs := range w.Receivers {
		wrxs = append(wrxs, rs...)
	}
	if len(rxs) != len(wrxs) || len(rxs) == 0 {
		t.Fatalf("%d receivers in the builder, %d in the world", len(rxs), len(wrxs))
	}
	for i := range rxs {
		if got, want := rxs[i].Config(), wrxs[i].Config(); got != want {
			t.Errorf("receiver %d config:\n builder %+v\n   world %+v", i, got, want)
		}
	}

	w.Start()
	for at := Second; at <= 300*Second; at += Second {
		sc.MustRun(at)
		w.Run(at)
		for i := range rxs {
			if got, want := rxs[i].Level(), wrxs[i].Level(); got != want {
				t.Fatalf("at %v receiver %d (node %d) is at level %d in the builder, %d in the world", at, i, rxs[i].Node().ID, got, want)
			}
		}
	}
	if ctrl.StepsRun != w.Controller.StepsRun || ctrl.SuggestionsSent != w.Controller.SuggestionsSent {
		t.Errorf("controller passes/suggestions: builder %d/%d, world %d/%d",
			ctrl.StepsRun, ctrl.SuggestionsSent, w.Controller.StepsRun, w.Controller.SuggestionsSent)
	}
	if w.Controller.Algorithm().Backoffs() == 0 && ctrl.SuggestionsSent == 0 {
		t.Error("the run made no decisions; it checks nothing")
	}
}
