package sim

import "sync"

// freeListChunk is how many records a FreeList makes in one allocation.
const freeListChunk = 64

// FreeList recycles records, chiefly event records (DESIGN.md §5): instead
// of a closure per scheduled message, a record carrying the message's
// arguments whose pointer type is the event's Action. A record goes back
// with Put when it fires, a cancellable one also when cancelled, and is not
// touched after. Get and Put lock, so a record taken in one shard and fired
// in another stays race-free.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get takes a record off the list; an empty list first makes a chunk of
// them in one allocation, outside its lock, and hands the chunk out in
// address order (as ArrayPool does its blocks). A record's fields hold
// whatever its last use left; the caller sets every one it reads.
func (f *FreeList[T]) Get() *T {
	f.mu.Lock()
	if k := len(f.free); k > 0 {
		r := f.free[k-1]
		f.free = f.free[:k-1]
		f.mu.Unlock()
		return r
	}
	f.mu.Unlock()
	chunk := make([]T, freeListChunk)
	for i := len(chunk) - 1; i > 0; i-- {
		f.Put(&chunk[i])
	}
	return &chunk[0]
}

// Put returns a record nobody holds any more.
func (f *FreeList[T]) Put(r *T) {
	f.mu.Lock()
	f.free = append(f.free, r)
	f.mu.Unlock()
}
