package trace

import (
	"strings"
	"testing"

	"toposense/internal/sim"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("loss")
	s.Add(0, 0.1)
	s.Add(sim.Second, 0.3)
	s.Add(2*sim.Second, 0.2)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	at, v := s.At(1)
	if at != sim.Second || v != 0.3 {
		t.Errorf("At(1) = %v, %g", at, v)
	}
	if s.Max() != 0.3 {
		t.Errorf("Max = %g", s.Max())
	}
	if got := s.Mean(); got < 0.19 || got > 0.21 {
		t.Errorf("Mean = %g", got)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries("x")
	if s.Max() != 0 || s.Mean() != 0 || s.Len() != 0 {
		t.Error("empty series aggregates nonzero")
	}
}

func TestSeriesOutOfOrderPanics(t *testing.T) {
	s := NewSeries("x")
	s.Add(sim.Second, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Add(0, 2)
}

func TestSeriesWindow(t *testing.T) {
	s := NewSeries("x")
	for i := 0; i < 10; i++ {
		s.Add(sim.Time(i)*sim.Second, float64(i))
	}
	w := s.Window(3*sim.Second, 6*sim.Second)
	if w.Len() != 4 {
		t.Fatalf("window Len = %d, want 4", w.Len())
	}
	if at, v := w.At(0); at != 3*sim.Second || v != 3 {
		t.Errorf("window start = %v, %g", at, v)
	}
}

func TestSeriesWriteTSV(t *testing.T) {
	s := NewSeries("x")
	s.Add(1500*sim.Millisecond, 0.5)
	var b strings.Builder
	if err := s.WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "1.500\t0.5\n" {
		t.Errorf("TSV = %q", got)
	}
}

func TestSampler(t *testing.T) {
	e := sim.NewEngine(1)
	sp := NewSampler(e, sim.Second)
	v := 0.0
	sp.Probe("v", func() float64 { v += 1; return v })
	sp.Start()
	sp.Start() // idempotent
	e.RunUntil(5 * sim.Second)
	sp.Stop()
	sp.Stop()
	e.RunUntil(10 * sim.Second)
	s := sp.Series("v")
	if s.Len() != 5 {
		t.Fatalf("samples = %d, want 5", s.Len())
	}
	if _, got := s.At(4); got != 5 {
		t.Errorf("last sample = %g", got)
	}
	if names := sp.Names(); len(names) != 1 || names[0] != "v" {
		t.Errorf("Names = %v", names)
	}
	if sp.Series("missing") != nil {
		t.Error("missing series should be nil")
	}
}

func TestSeriesWindowClipped(t *testing.T) {
	full := NewSeries("x")
	for i := 0; i < 10; i++ {
		full.Add(sim.Time(i)*sim.Second, float64(i))
	}
	empty := NewSeries("e")
	cases := []struct {
		name     string
		src      *Series
		from, to sim.Time
		wantLen  int
		wantClip bool
	}{
		{"full range", full, 0, 9 * sim.Second, 10, false},
		{"interior cut", full, 3 * sim.Second, 6 * sim.Second, 4, true},
		{"cut at head", full, sim.Second, 9 * sim.Second, 9, true},
		{"cut at tail", full, 0, 8 * sim.Second, 9, true},
		{"beyond both ends", full, -sim.Second, 20 * sim.Second, 10, false},
		{"empty window between samples", full, 3500 * sim.Millisecond, 3600 * sim.Millisecond, 0, true},
		{"inverted range", full, 6 * sim.Second, 3 * sim.Second, 0, true},
		{"empty series", empty, 0, sim.Second, 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := c.src.Window(c.from, c.to)
			if w.Len() != c.wantLen {
				t.Errorf("Len = %d, want %d", w.Len(), c.wantLen)
			}
			if w.Clipped() != c.wantClip {
				t.Errorf("Clipped = %v, want %v", w.Clipped(), c.wantClip)
			}
		})
	}
	// Clipping is sticky: a full-range window of a clipped series stays
	// clipped — it still is not the whole recording.
	cut := full.Window(3*sim.Second, 6*sim.Second)
	if w := cut.Window(0, 20*sim.Second); !w.Clipped() {
		t.Error("window of a clipped series lost the clipped flag")
	}
}
