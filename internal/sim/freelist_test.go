package sim

import (
	"sync"
	"testing"
	"unsafe"
)

type rec struct{ n int }

func (r *rec) Fire() { r.n++ }

// TestFreeListRecycles: an empty list makes a chunk of records at once and
// hands it out in address order, records come back in LIFO order, and the steady state allocates nothing —
// the whole point of scheduling a record (its own Action) instead of a
// closure.
func TestFreeListRecycles(t *testing.T) {
	var f FreeList[rec]
	a := f.Get()
	if n := len(f.free); n != freeListChunk-1 {
		t.Fatalf("first Get left %d records on the list, want %d", n, freeListChunk-1)
	}
	if b, c := f.Get(), f.Get(); uintptr(unsafe.Pointer(b)) <= uintptr(unsafe.Pointer(a)) || uintptr(unsafe.Pointer(c)) <= uintptr(unsafe.Pointer(b)) {
		t.Error("a fresh chunk is not handed out in address order")
	} else {
		f.Put(c)
		f.Put(b)
	}
	a.Fire()
	f.Put(a)
	if b := f.Get(); b != a || b.n != 1 {
		t.Errorf("Get after Put returned another record (or reset it)")
	}
	e := NewEngine(1)
	if got := testing.AllocsPerRun(100, func() {
		r := f.Get()
		e.After(1, r)
		e.Run()
		f.Put(r)
	}); got != 0 {
		t.Errorf("get, schedule, fire, put: %v allocs, want 0", got)
	}
	f.Put(a)
	if n := len(f.free); n != freeListChunk {
		t.Errorf("%d records on the list for one chunk made", n)
	}
}

// TestFreeListConcurrent: records taken on one goroutine and returned on
// another, as a graft crossing shards does (run it under -race).
func TestFreeListConcurrent(t *testing.T) {
	var f FreeList[rec]
	ch := make(chan *rec, 16)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			r := f.Get()
			r.n = i
			ch <- r
		}
		close(ch)
	}()
	go func() {
		defer wg.Done()
		for r := range ch {
			f.Put(r)
		}
	}()
	wg.Wait()
}
