package report

import (
	"fmt"
	"math/rand"
	"testing"

	"toposense/internal/netsim"
)

// maxLive is how many pooled payloads a pool script keeps live at most.
const maxLive = 16

// refAgg is the reference for one live Aggregate: the exact sums per node,
// plus the largest entry count this life reached.
type refAgg struct {
	entries map[netsim.NodeID]AggEntry
	maxLen  int
}

// refBatch is the reference for one live SuggestionBatch.
type refBatch struct {
	entries []SugEntry
	maxLen  int
}

type poolSlot struct {
	agg    *Aggregate
	batch  *SuggestionBatch
	refA   *refAgg
	refB   *refBatch
	origin netsim.NodeID
}

// runPoolScript interprets script three bytes an operation (op, x, y; slot
// x means x%16):
//
//	0 NewAggregate in slot x      5 Release slot x
//	1 Fold node y%64 into x       6 NewSuggestionBatch in slot x
//	2 Fold 1<<(y%11) nodes into x 7 Add node y to batch x
//	3 Merge slot x/16 into x%16   8 Add 1<<(y%11) entries to batch x
//	4 RemoveEntry node y%64 from x
//
// After every operation each live payload must hold exactly its reference's
// contents, a capacity of at most twice the largest length of its life (at
// least 1), and an array no other live payload holds. Everything still live
// at the end is released.
func runPoolScript(t testing.TB, script []byte) {
	var slots [maxLive]poolSlot
	defer func() {
		for i := range slots {
			if slots[i].agg != nil {
				slots[i].agg.Release()
			}
			if slots[i].batch != nil {
				slots[i].batch.Release()
			}
		}
	}()
	fold := func(s *poolSlot, r LossReport) {
		s.agg.Fold(r)
		e, ok := s.refA.entries[r.Node]
		if !ok {
			e = AggEntry{Node: r.Node}
		}
		e.Level = r.Level
		e.Reports++
		e.LossSum += r.LossRate
		e.Bytes += r.Bytes
		s.refA.entries[r.Node] = e
		s.refA.maxLen = max(s.refA.maxLen, len(s.refA.entries))
	}
	add := func(s *poolSlot, e SugEntry) {
		s.batch.Add(e.Node, e.Session, e.Level)
		s.refB.entries = append(s.refB.entries, e)
		s.refB.maxLen = max(s.refB.maxLen, len(s.refB.entries))
	}
	lr := func(node netsim.NodeID, y byte) LossReport {
		return LossReport{Node: node, Session: 1, Level: int(y % 8), LossRate: float64(y) / 256, Bytes: int64(y) * 100}
	}
	for pc := 0; pc+2 < len(script); pc += 3 {
		op, x, y := script[pc]%9, script[pc+1], script[pc+2]
		s := &slots[x%maxLive]
		switch op {
		case 0:
			if s.agg == nil && s.batch == nil {
				s.origin = netsim.NodeID(pc)
				s.agg = NewAggregate(int(y), s.origin)
				s.refA = &refAgg{entries: map[netsim.NodeID]AggEntry{}}
			}
		case 1:
			if s.agg != nil {
				fold(s, lr(netsim.NodeID(y%64), y))
			}
		case 2:
			if s.agg != nil {
				for i := 0; i < 1<<(y%11); i++ {
					fold(s, lr(netsim.NodeID(2*i+int(y&1)), y+byte(i)))
				}
			}
		case 3:
			src := &slots[(x/maxLive)%maxLive]
			if s.agg != nil && src.agg != nil && src != s {
				s.agg.Merge(src.agg)
				for node, be := range src.refA.entries {
					e, ok := s.refA.entries[node]
					if !ok {
						s.refA.entries[node] = be
						continue
					}
					e.Level = be.Level
					e.Reports += be.Reports
					e.LossSum += be.LossSum
					e.Bytes += be.Bytes
					s.refA.entries[node] = e
				}
				s.refA.maxLen = max(s.refA.maxLen, len(s.refA.entries))
			}
		case 4:
			if s.agg != nil {
				node := netsim.NodeID(y % 64)
				_, want := s.refA.entries[node]
				if got := s.agg.RemoveEntry(node); got != want {
					t.Fatalf("op %d: RemoveEntry(%d) = %v, reference holds it: %v", pc/3, node, got, want)
				}
				delete(s.refA.entries, node)
			}
		case 5:
			if s.agg != nil {
				s.agg.Release()
			}
			if s.batch != nil {
				s.batch.Release()
			}
			*s = poolSlot{}
		case 6:
			if s.agg == nil && s.batch == nil {
				s.batch = NewSuggestionBatch()
				s.refB = &refBatch{}
			}
		case 7:
			if s.batch != nil {
				add(s, SugEntry{Node: netsim.NodeID(y), Session: int(y % 3), Level: int(y % 8)})
			}
		case 8:
			if s.batch != nil {
				for i := 0; i < 1<<(y%11); i++ {
					add(s, SugEntry{Node: netsim.NodeID(i), Session: int(y % 3), Level: i % 8})
				}
			}
		}
		if err := checkPoolSlots(&slots); err != nil {
			t.Fatalf("op %d (%d %d %d): %v", pc/3, op, x, y, err)
		}
	}
}

// checkPoolSlots compares every live payload with its reference.
func checkPoolSlots(slots *[maxLive]poolSlot) error {
	aggSeen := map[*AggEntry]int{}
	sugSeen := map[*SugEntry]int{}
	for i := range slots {
		s := &slots[i]
		switch {
		case s.agg != nil:
			a := s.agg
			if len(a.Entries) != len(s.refA.entries) {
				return fmt.Errorf("slot %d: %d entries, reference %d", i, len(a.Entries), len(s.refA.entries))
			}
			for j, e := range a.Entries {
				if j > 0 && a.Entries[j-1].Node >= e.Node {
					return fmt.Errorf("slot %d: entries unsorted at %d", i, j)
				}
				if want := s.refA.entries[e.Node]; e != want {
					return fmt.Errorf("slot %d: entry %+v, reference %+v", i, e, want)
				}
			}
			if limit := 2 * max(1, s.refA.maxLen); cap(a.Entries) > limit {
				return fmt.Errorf("slot %d: cap %d, but this life held at most %d entries", i, cap(a.Entries), s.refA.maxLen)
			}
			if a.Origin != s.origin {
				return fmt.Errorf("slot %d: origin %d, want %d", i, a.Origin, s.origin)
			}
			if cap(a.Entries) > 0 {
				p := &a.Entries[:1][0]
				if j, dup := aggSeen[p]; dup {
					return fmt.Errorf("slots %d and %d share an entry array", j, i)
				}
				aggSeen[p] = i
			}
		case s.batch != nil:
			b := s.batch
			if len(b.Entries) != len(s.refB.entries) {
				return fmt.Errorf("slot %d: %d batch entries, reference %d", i, len(b.Entries), len(s.refB.entries))
			}
			for j, e := range b.Entries {
				if e != s.refB.entries[j] {
					return fmt.Errorf("slot %d: batch entry %d = %+v, reference %+v", i, j, e, s.refB.entries[j])
				}
			}
			if limit := 2 * max(1, s.refB.maxLen); cap(b.Entries) > limit {
				return fmt.Errorf("slot %d: batch cap %d, but this life held at most %d entries", i, cap(b.Entries), s.refB.maxLen)
			}
			if cap(b.Entries) > 0 {
				p := &b.Entries[:1][0]
				if j, dup := sugSeen[p]; dup {
					return fmt.Errorf("slots %d and %d share a batch array", j, i)
				}
				sugSeen[p] = i
			}
		}
	}
	return nil
}

// payloadPoolSeeds are FuzzPayloadPool's committed corpus.
var payloadPoolSeeds = [][]byte{
	// A 1 024-entry aggregate released, then its struct reused for a 2-entry
	// fold: the new life must not keep the old life's array.
	{0, 0, 0, 2, 0, 10, 5, 0, 0, 0, 0, 0, 1, 0, 3, 1, 0, 4},
	// The same for a batch: 1 024 adds, release, two adds.
	{6, 0, 0, 8, 0, 10, 5, 0, 0, 6, 0, 0, 7, 0, 1, 7, 0, 2},
	// Leaves merged into an interior aggregate, the interior into a top one,
	// then everything released and a leaf rebuilt.
	{0, 1, 0, 2, 1, 1, 0, 2, 0, 2, 2, 2, 0, 3, 0, 3, 16*1 + 3, 0, 3, 16*2 + 3, 0,
		0, 4, 0, 3, 16*3 + 4, 0, 5, 1, 0, 5, 2, 0, 5, 3, 0, 0, 1, 0, 1, 1, 9},
	// Merge into an empty aggregate, then remove entries down to none.
	{0, 0, 0, 0, 1, 0, 2, 1, 2, 3, 16*1 + 0, 0, 4, 0, 0, 4, 0, 2, 4, 0, 4, 4, 0, 6, 1, 0, 7},
}

func FuzzPayloadPool(f *testing.F) {
	for _, s := range payloadPoolSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*256 {
			script = script[:3*256]
		}
		runPoolScript(t, script)
	})
}

// TestPayloadPoolRandomScripts runs FuzzPayloadPool's seeds and a few
// hundred random scripts without the fuzzing engine.
func TestPayloadPoolRandomScripts(t *testing.T) {
	for i, s := range payloadPoolSeeds {
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) { runPoolScript(t, s) })
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 300; i++ {
		script := make([]byte, 3*(1+rng.Intn(120)))
		rng.Read(script)
		runPoolScript(t, script)
	}
}
