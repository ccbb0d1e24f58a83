package report

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
)

// arrayPool recycles the entry arrays of pooled payloads by capacity class:
// class k holds empty arrays of capacity exactly 1<<k. A payload takes an
// array sized for what it is about to hold and gives it back on Release, so
// an array belongs to no payload between uses and a payload's capacity is
// at most twice the most it has held since it was taken, whatever it held
// in earlier lives. Get and put lock: shards release payloads concurrently,
// as they do sim.FreeList records.
type arrayPool[T any] struct {
	mu   sync.Mutex
	free [bits.UintSize][][]T
	made int64 // arrays made because their class was empty (atomic)
	// junk is one entry no consumer can take for data. In test binaries put
	// fills every released array with it, and a released payload's Entries
	// is junk itself, so a read after Release fails loudly instead of
	// seeing numbers. junk belongs to no class: put never files it, and
	// growing it (cap 1) copies instead of writing into it.
	junk []T
}

// poisonReleased is on in test binaries only.
var poisonReleased = testing.Testing()

// junkNode lies far outside any network: indexing by it panics.
const junkNode = -1 << 40

var (
	aggArrays = arrayPool[AggEntry]{junk: []AggEntry{{
		Node: junkNode, Level: junkNode, Reports: math.MinInt32, LossSum: math.NaN(), Bytes: junkNode,
	}}}
	sugArrays = arrayPool[SugEntry]{junk: []SugEntry{{Node: junkNode, Session: junkNode, Level: junkNode}}}
)

// get returns an empty array with room for n > 0 entries, from class
// ⌈log₂ n⌉; only an empty class makes a new one.
func (p *arrayPool[T]) get(n int) []T {
	k := bits.Len(uint(n - 1))
	p.mu.Lock()
	if f := p.free[k]; len(f) > 0 {
		a := f[len(f)-1]
		p.free[k] = f[:len(f)-1]
		p.mu.Unlock()
		return a
	}
	p.mu.Unlock()
	atomic.AddInt64(&p.made, 1)
	return make([]T, 0, 1<<k)
}

// put files a (which nobody holds any more) under ⌊log₂ cap⌋; nil and
// junk are dropped.
func (p *arrayPool[T]) put(a []T) {
	a = a[:cap(a)]
	if len(a) == 0 || &a[0] == &p.junk[0] {
		return
	}
	if poisonReleased {
		for i := range a {
			a[i] = p.junk[0]
		}
	}
	k := bits.Len(uint(cap(a))) - 1
	p.mu.Lock()
	p.free[k] = append(p.free[k], a[:0])
	p.mu.Unlock()
}

// release returns a to the pool and what the payload that held it keeps:
// nil, or junk in test binaries.
func (p *arrayPool[T]) release(a []T) []T {
	p.put(a)
	if poisonReleased {
		return p.junk
	}
	return nil
}

// grow returns a with room for n entries: a itself when it has it,
// otherwise an array from the pool holding a copy of a, a going back.
func (p *arrayPool[T]) grow(a []T, n int) []T {
	if n <= cap(a) {
		return a
	}
	b := append(p.get(n), a...)
	p.put(a)
	return b
}

// AggregateArraysMade returns how many entry arrays the Aggregate pool has
// made so far across the process; once a run's working set is pooled it
// stops moving.
func AggregateArraysMade() int64 { return atomic.LoadInt64(&aggArrays.made) }

// BatchArraysMade is AggregateArraysMade for SuggestionBatch entries.
func BatchArraysMade() int64 { return atomic.LoadInt64(&sugArrays.made) }
