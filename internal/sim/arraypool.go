package sim

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// Poison is on in test binaries only: storage given back to a pool —
// ArrayPool's arrays, netsim's recycled packet payloads, report's and
// mcast's released records — is filled with junk, so a read after the
// give-back fails loudly instead of seeing data. No production code sets
// it; a benchmark timing the production path turns it off.
var Poison = testing.Testing()

// arrayBlockBytes is the block an empty class is refilled from: a class
// whose arrays fit in it at least twice carves one block into as many as
// fit, in one allocation; a larger class makes one array.
const arrayBlockBytes = 2048

// ArrayPool recycles arrays by capacity class: class k holds empty arrays
// of capacity exactly 1<<k. A holder takes an array sized for what it is
// about to hold and gives it back when it outgrows it or lets go, so an
// array belongs to no holder between uses and a holder's capacity is at
// most twice the most it has held since it took the array, whatever the
// array held for earlier holders. Get and Put lock: shards take and give
// back arrays concurrently, as they do FreeList records.
type ArrayPool[T any] struct {
	mu sync.Mutex
	// free[k] holds the first entries of class k's empty arrays: the
	// capacity is the class's, so a pointer is the whole array, at a third
	// of a slice header's footprint.
	free [bits.UintSize][]*T
	made int64 // arrays made because their class was empty (atomic)
	// junk is one entry no consumer can take for data. While Poison is
	// set, Put fills every array it files with it, so a read after the
	// array went back fails loudly instead of seeing data. junk belongs to
	// no class: Put never files it, and growing it (cap 1) copies instead
	// of writing into it.
	junk []T
}

// NewArrayPool returns an empty pool that, while Poison is set, fills the
// arrays given back to it with junk.
func NewArrayPool[T any](junk T) *ArrayPool[T] {
	return &ArrayPool[T]{junk: []T{junk}}
}

// Get returns an empty array with room for n > 0 entries, from class
// ⌈log₂ n⌉; only an empty class makes new ones. An array's capacity ends
// where its block share does, so appending past it copies instead of
// running into its neighbour.
func (p *ArrayPool[T]) Get(n int) []T {
	k := bits.Len(uint(n - 1))
	c := 1 << k
	p.mu.Lock()
	if f := p.free[k]; len(f) > 0 {
		a := f[len(f)-1]
		p.free[k] = f[:len(f)-1]
		p.mu.Unlock()
		return unsafe.Slice(a, c)[:0]
	}
	p.mu.Unlock()
	per := arrayBlockBytes / max(1, c*int(unsafe.Sizeof(p.junk[0])))
	if per < 2 {
		atomic.AddInt64(&p.made, 1)
		return make([]T, 0, c)
	}
	atomic.AddInt64(&p.made, int64(per))
	block := make([]T, per*c)
	// Filed last first, so the class hands the block out in address order:
	// holders made one after another — a tree's nodes, which replication
	// visits in about that order — sit in ascending memory. Handed out
	// descending, mcast's rows and child tables made HandleMulticast's own
	// time on tree1k-agg about 1.6 times as long (12 profiled runs each).
	p.mu.Lock()
	p.free[k] = slices.Grow(p.free[k], per-1)
	for i := len(block) - c; i > 0; i -= c {
		p.free[k] = append(p.free[k], &block[i])
	}
	p.mu.Unlock()
	return block[:0:c]
}

// Put files a (which nobody holds any more) under ⌊log₂ cap⌋; nil and
// junk are dropped.
func (p *ArrayPool[T]) Put(a []T) {
	a = a[:cap(a)]
	if len(a) == 0 || &a[0] == &p.junk[0] {
		return
	}
	if Poison {
		for i := range a {
			a[i] = p.junk[0]
		}
	}
	k := bits.Len(uint(cap(a))) - 1
	p.mu.Lock()
	p.free[k] = append(p.free[k], &a[0])
	p.mu.Unlock()
}

// Release gives a back and returns what its holder keeps instead: nil,
// or junk while the pool poisons.
func (p *ArrayPool[T]) Release(a []T) []T {
	p.Put(a)
	if Poison {
		return p.junk
	}
	return nil
}

// Grow returns a with room for n entries: a itself when it has it,
// otherwise an array from the pool holding a copy of a, a going back.
func (p *ArrayPool[T]) Grow(a []T, n int) []T {
	if n <= cap(a) {
		return a
	}
	b := append(p.Get(n), a...)
	p.Put(a)
	return b
}

// Made returns how many arrays the pool has made so far; once its
// holders' working set is pooled it stops moving.
func (p *ArrayPool[T]) Made() int64 { return atomic.LoadInt64(&p.made) }
