package sim

import (
	"sync"
	"testing"
)

type rec struct {
	n    int
	fire func()
}

func (r *rec) run() { r.n++ }

// TestFreeListRecycles: records are bound once when the list makes them,
// come back in LIFO order, and the steady state allocates nothing — the
// whole point of scheduling a record instead of a closure.
func TestFreeListRecycles(t *testing.T) {
	var f FreeList[rec]
	bound := 0
	f.Bind = func(r *rec) { r.fire = r.run; bound++ }
	a := f.Get()
	if a.fire == nil || bound != freeListChunk {
		t.Fatalf("first Get bound %d records, fire set %v", bound, a.fire != nil)
	}
	a.fire()
	f.Put(a)
	if b := f.Get(); b != a || b.n != 1 {
		t.Errorf("Get after Put returned another record (or reset it)")
	}
	e := NewEngine(1)
	if got := testing.AllocsPerRun(100, func() {
		r := f.Get()
		e.Schedule(1, r.fire)
		e.Run()
		f.Put(r)
	}); got != 0 {
		t.Errorf("get, schedule, fire, put: %v allocs, want 0", got)
	}
	if bound != freeListChunk {
		t.Errorf("%d records made for at most two in use", bound)
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
