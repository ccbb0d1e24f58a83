package receiver

import (
	"math/rand"
	"slices"
	"testing"

	"toposense/internal/netsim"
	"toposense/internal/sim"
)

// accountingRig builds a receiver whose sequence accounting is driven by
// hand: packets are fed straight into RecvMulticast and intervals are
// closed by calling tick directly, so each test controls exactly what the
// layer streams look like.
func accountingRig(t *testing.T) *rig {
	t.Helper()
	r := newRig(t, 10e6, Config{
		InitialLevel:    0,
		ReportInterval:  1000 * sim.Second, // never fires on its own
		UnilateralAfter: -1,
	})
	r.rx.setLevel(1)
	return r
}

// feed delivers one layer-1 data packet with the given sequence number.
func (r *rig) feed(seq int64) {
	r.rx.RecvMulticast(&netsim.Packet{
		Kind: netsim.Data, Session: 0, Layer: 1, Seq: seq, Size: 1000,
		Group: r.d.GroupOf(0, 1),
	})
}

// TestDuplicatesDoNotMaskLoss pins the core accounting fix: duplicated
// packets must not count as received, or they cancel out real losses in the
// same interval. Stream 1,2,2,2,5 has two real losses (3 and 4) and two
// duplicates; the reported loss must be 2/5, not the 0 the old
// count-everything-as-received accounting produced.
func TestDuplicatesDoNotMaskLoss(t *testing.T) {
	r := accountingRig(t)
	for _, s := range []int64{1, 2, 2, 2, 5} {
		r.feed(s)
	}
	r.rx.tick()
	if got := r.rx.LastLoss; got != 0.4 {
		t.Errorf("LastLoss = %g, want 0.4 (duplicates masked the losses)", got)
	}
	if r.rx.Duplicates != 2 {
		t.Errorf("Duplicates = %d, want 2", r.rx.Duplicates)
	}
	if r.rx.Reordered != 0 {
		t.Errorf("Reordered = %d, want 0", r.rx.Reordered)
	}
}

// TestLateArrivalFillsGap: a reordered packet is not a loss. 1,2,5,3,4
// delivers everything, just out of order.
func TestLateArrivalFillsGap(t *testing.T) {
	r := accountingRig(t)
	for _, s := range []int64{1, 2, 5, 3, 4} {
		r.feed(s)
	}
	r.rx.tick()
	if got := r.rx.LastLoss; got != 0 {
		t.Errorf("LastLoss = %g, want 0 (reordering is not loss)", got)
	}
	if r.rx.Reordered != 2 {
		t.Errorf("Reordered = %d, want 2", r.rx.Reordered)
	}
	if r.rx.Duplicates != 0 {
		t.Errorf("Duplicates = %d, want 0", r.rx.Duplicates)
	}
}

// TestReorderedDuplicateStillDuplicate: a late arrival that fills a gap,
// then arrives again, is one reorder plus one duplicate.
func TestReorderedDuplicateStillDuplicate(t *testing.T) {
	r := accountingRig(t)
	for _, s := range []int64{1, 3, 2, 2} {
		r.feed(s)
	}
	r.rx.tick()
	if got := r.rx.LastLoss; got != 0 {
		t.Errorf("LastLoss = %g, want 0", got)
	}
	if r.rx.Reordered != 1 || r.rx.Duplicates != 1 {
		t.Errorf("Reordered/Duplicates = %d/%d, want 1/1", r.rx.Reordered, r.rx.Duplicates)
	}
}

// TestIntervalBoundaryDebt walks a gap-fill across an interval boundary:
// the interval that receives the late packets must not report negative
// loss, and the over-receipt must be carried so cumulative accounting stays
// exact.
func TestIntervalBoundaryDebt(t *testing.T) {
	r := accountingRig(t)

	// Interval 1: 1,2,5 — packets 3,4 look lost. Reported loss 2/5.
	for _, s := range []int64{1, 2, 5} {
		r.feed(s)
	}
	r.rx.tick()
	if got := r.rx.LastLoss; got != 0.4 {
		t.Fatalf("interval 1 loss = %g, want 0.4", got)
	}

	// Interval 2: the "lost" 3,4 arrive late, plus 6. Three received against
	// one newly expected — loss must clamp to 0 (not -2) with the surplus
	// carried as debt.
	for _, s := range []int64{3, 4, 6} {
		r.feed(s)
	}
	r.rx.tick()
	if got := r.rx.LastLoss; got != 0 {
		t.Fatalf("interval 2 loss = %g, want 0", got)
	}
	if debt := r.rx.layers[0].debt; debt != -2 {
		t.Fatalf("carried debt = %d, want -2", debt)
	}

	// Interval 3: 9 arrives, 7,8 genuinely lost — exactly cancelled by the
	// debt: the 2 losses here were already reported in interval 1.
	r.feed(9)
	r.rx.tick()
	if got := r.rx.LastLoss; got != 0 {
		t.Fatalf("interval 3 loss = %g, want 0 (debt absorbs re-reported losses)", got)
	}
	if debt := r.rx.layers[0].debt; debt != 0 {
		t.Fatalf("debt = %d after absorption, want 0", debt)
	}

	// Interval 4: fresh losses report normally again: 10,13 → 11,12 lost.
	r.feed(10)
	r.feed(13)
	r.rx.tick()
	if got := r.rx.LastLoss; got != 0.5 {
		t.Errorf("interval 4 loss = %g, want 0.5", got)
	}
}

// TestAncientSequenceTreatedAsDuplicate: a packet older than the 64-seq
// window can't be verified against the gap record and must not inflate
// received.
func TestAncientSequenceTreatedAsDuplicate(t *testing.T) {
	r := accountingRig(t)
	r.feed(1)
	r.feed(100) // advance far beyond the window; 98 seqs look lost
	r.feed(2)   // 98 behind lastSeq: unverifiable
	r.rx.tick()
	if r.rx.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", r.rx.Duplicates)
	}
	// expected = 1 + 99, received = 2 → loss 98/100.
	if got := r.rx.LastLoss; got != 0.98 {
		t.Errorf("LastLoss = %g, want 0.98", got)
	}
}

// TestRejoinResetsAccounting: leaving and rejoining a layer starts a fresh
// sequence epoch — no stale window, no stale debt.
func TestRejoinResetsAccounting(t *testing.T) {
	r := accountingRig(t)
	// Build up debt: report 3,4 lost, then have them arrive.
	for _, s := range []int64{1, 2, 5} {
		r.feed(s)
	}
	r.rx.tick()
	for _, s := range []int64{3, 4} {
		r.feed(s)
	}
	r.rx.tick()
	if debt := r.rx.layers[0].debt; debt != -2 {
		t.Fatalf("debt = %d, want -2 before rejoin", debt)
	}

	r.rx.setLevel(0)
	r.rx.setLevel(1)
	if debt := r.rx.layers[0].debt; debt != 0 {
		t.Fatalf("debt = %d after rejoin, want 0", debt)
	}
	// New epoch at a new sequence base: 200 then a real loss at 202.
	r.feed(200)
	r.feed(203)
	r.rx.tick()
	if got := r.rx.LastLoss; got != 0.5 {
		t.Errorf("post-rejoin loss = %g, want 0.5 (2 of 4 lost)", got)
	}
}

// TestStalePacketAfterLeaveIgnoredByAccounting: packets for a left layer
// must not touch counters even when they carry novel sequence numbers.
func TestStalePacketAfterLeaveIgnoredByAccounting(t *testing.T) {
	r := accountingRig(t)
	r.feed(1)
	r.rx.setLevel(0)
	r.feed(2) // leave-latency stragglers
	r.feed(3)
	if got := r.rx.layers[0].received; got != 1 {
		t.Errorf("received = %d, want 1 (stale packets counted)", got)
	}
	if r.rx.Duplicates != 0 && r.rx.Reordered != 0 {
		t.Errorf("stale packets moved dup/reorder counters: %d/%d", r.rx.Duplicates, r.rx.Reordered)
	}
}

// refTick is tick's accounting walked over the full layer table, the
// reference for tick's walk over the held layers: it closes the interval on
// ls and returns what the report must carry.
func refTick(ls []layerState) (loss float64, bytes int64) {
	var lost, expected int64
	for i := range ls {
		l := ls[i].expected - ls[i].received + ls[i].debt
		if l < 0 {
			ls[i].debt, l = l, 0
		} else {
			ls[i].debt = 0
		}
		lost += l
		expected += ls[i].expected
		bytes += ls[i].bytes
		ls[i].received, ls[i].expected, ls[i].bytes = 0, 0, 0
	}
	if expected > 0 {
		loss = float64(lost) / float64(expected)
	}
	return loss, bytes
}

// TestTickHeldLayersRandomScripts is the differential test of tick's
// held-layers walk: random scripts of joins, drops in the middle of an
// interval, in-order packets with gaps, late, duplicate and too-old
// packets on every layer, and interval ends that carry debt. At every tick
// the report's loss and bytes and the whole layer table afterwards must
// equal the full-table reference's.
func TestTickHeldLayersRandomScripts(t *testing.T) {
	// ticks after a drop that left counted layers above the level, and
	// ticks that carried debt on some layer
	skippedDrops, debts := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := accountingRig(t)
		rx := r.rx
		var next [6]int64 // per layer: the next in-order sequence number
		var sizes = [...]int{200, 1000, 1400}
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(20); {
			case k == 0:
				rx.setLevel(rng.Intn(rx.cfg.MaxLayers + 1))
			case k == 1:
				if rx.level > 0 {
					rx.setLevel(rng.Intn(rx.level)) // a drop mid-interval
				}
			case k == 2:
				dropped := false
				for i := rx.level; i < len(rx.layers); i++ {
					dropped = dropped || rx.layers[i].expected != 0 || rx.layers[i].bytes != 0
				}
				if dropped {
					skippedDrops++
				}
				ref := slices.Clone(rx.layers)
				loss, bytes := refTick(ref)
				reports := len(r.ctrl.reports)
				rx.tick()
				r.e.Run()
				if len(r.ctrl.reports) != reports+1 {
					t.Fatalf("seed %d op %d: tick sent %d reports", seed, op, len(r.ctrl.reports)-reports)
				}
				got := r.ctrl.reports[reports]
				if got.LossRate != loss || rx.LastLoss != loss || got.Bytes != bytes {
					t.Fatalf("seed %d op %d: reported loss %g (LastLoss %g) and %d bytes, want %g and %d",
						seed, op, got.LossRate, rx.LastLoss, got.Bytes, loss, bytes)
				}
				if !slices.Equal(rx.layers, ref) {
					t.Fatalf("seed %d op %d: layer table after tick\n %+v\nwant\n %+v", seed, op, rx.layers, ref)
				}
				if slices.ContainsFunc(ref, func(ls layerState) bool { return ls.debt < 0 }) {
					debts++
				}
			default:
				l := 1 + rng.Intn(len(rx.layers))
				seq := next[l-1]
				switch rng.Intn(6) {
				case 0, 1, 2: // in order, perhaps past a gap
					seq += int64(rng.Intn(4))
					next[l-1] = seq + 1
				case 3: // late, within the window or beyond it
					seq -= 1 + int64(rng.Intn(80))
				case 4: // the newest again
					seq--
				case 5: // far ahead
					seq += 60 + int64(rng.Intn(20))
					next[l-1] = seq + 1
				}
				rx.RecvMulticast(&netsim.Packet{
					Kind: netsim.Data, Session: 0, Layer: l, Seq: seq, Size: sizes[rng.Intn(len(sizes))],
					Group: r.d.GroupOf(0, l),
				})
			}
		}
	}
	if skippedDrops < 100 || debts < 100 {
		t.Errorf("%d ticks followed a drop that left counts above the level and %d carried debt; want 100 each", skippedDrops, debts)
	}
}
