package controller

import (
	"math"
	"strings"
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/report"
	"toposense/internal/sim"
)

func TestBillingDisabledByDefault(t *testing.T) {
	w := buildChainWorld(t, 500e3, 0)
	w.start()
	w.e.RunUntil(20 * sim.Second)
	if w.ctrl.BillingEnabled() {
		t.Error("billing on without EnableBilling")
	}
	if w.ctrl.BillingReport() != nil {
		t.Error("report from disabled billing")
	}
}

func TestBillingMetersRealRun(t *testing.T) {
	w := buildChainWorld(t, 500e3, 0)
	w.ctrl.EnableBilling()
	w.ctrl.EnableBilling() // idempotent
	w.start()
	w.e.RunUntil(120 * sim.Second)
	entries := w.ctrl.BillingReport()
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(entries))
	}
	e := entries[0]
	if e.Node != w.rxs[0].Node().ID || e.Session != 0 {
		t.Errorf("entry identity: %+v", e)
	}
	if e.Reports < 200 { // ~240 reports at 500 ms over 120 s
		t.Errorf("reports metered = %d", e.Reports)
	}
	// The receiver converges to 4 layers (480 Kbps): total volume is
	// bounded by 480 Kbps x 120 s and must be substantial.
	maxBytes := int64(480e3 / 8 * 125)
	if e.Bytes <= 0 || e.Bytes > maxBytes {
		t.Errorf("bytes metered = %d (bound %d)", e.Bytes, maxBytes)
	}
	if ml := e.MeanLevel(); ml < 2.5 || ml > 4.6 {
		t.Errorf("mean level = %.2f", ml)
	}
	// Time accounted roughly matches the run.
	var total float64
	for _, secs := range e.LevelSeconds {
		total += secs
	}
	if math.Abs(total-120) > 10 {
		t.Errorf("accounted %.1f s of a 120 s run", total)
	}
}

func TestBillingSurvivesReceiverDeparture(t *testing.T) {
	// "You still bill a customer who left": the ledger outlives the
	// registration expiry.
	w := buildChainWorld(t, 500e3, 0)
	w.ctrl.EnableBilling()
	w.start()
	w.e.RunUntil(30 * sim.Second)
	w.rxs[0].Stop()
	w.e.RunUntil(90 * sim.Second) // registration long expired
	entries := w.ctrl.BillingReport()
	if len(entries) != 1 || entries[0].Bytes == 0 {
		t.Fatalf("ledger lost after departure: %+v", entries)
	}
}

func TestBillingReportFormatting(t *testing.T) {
	entries := []BillingEntry{
		{Node: 3, Session: 0, Bytes: 1234567, Reports: 42,
			LevelSeconds: map[int]float64{4: 100, 2: 20}},
	}
	out := FormatBillingReport(entries)
	if !strings.Contains(out, "1234567") || !strings.Contains(out, "mean level") {
		t.Errorf("report = %q", out)
	}
	// Mean level of 100 s @4 + 20 s @2 = 3.67.
	if got := entries[0].MeanLevel(); math.Abs(got-3.6667) > 0.001 {
		t.Errorf("MeanLevel = %g", got)
	}
	if (BillingEntry{}).MeanLevel() != 0 {
		t.Error("empty entry mean level")
	}
}

func TestBillingReportIsACopy(t *testing.T) {
	w := buildChainWorld(t, 500e3, 0)
	w.ctrl.EnableBilling()
	w.ctrl.Recv(&netsim.Packet{Payload: &report.LossReport{
		Node: 5, Session: 0, Level: 2, Bytes: 1000, Interval: sim.Second,
	}})
	r1 := w.ctrl.BillingReport()
	r1[0].LevelSeconds[2] = 999 // mutate the copy
	r2 := w.ctrl.BillingReport()
	if r2[0].LevelSeconds[2] == 999 {
		t.Error("BillingReport aliases the ledger")
	}
}

func TestBillingSortedOutput(t *testing.T) {
	w := buildChainWorld(t, 500e3, 0)
	w.ctrl.EnableBilling()
	for _, in := range []report.LossReport{
		{Node: 9, Session: 1, Level: 1, Bytes: 10, Interval: sim.Second},
		{Node: 2, Session: 0, Level: 1, Bytes: 10, Interval: sim.Second},
		{Node: 7, Session: 0, Level: 1, Bytes: 10, Interval: sim.Second},
	} {
		w.ctrl.Recv(&netsim.Packet{Payload: &in})
	}
	entries := w.ctrl.BillingReport()
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Node != 2 || entries[1].Node != 7 || entries[2].Session != 1 {
		t.Errorf("unsorted: %+v", entries)
	}
}
