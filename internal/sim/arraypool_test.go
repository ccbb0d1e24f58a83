package sim

import (
	"sync"
	"testing"
	"unsafe"
)

// TestArrayPoolCarvesBlocks: an empty class of small arrays is refilled by
// carving one block, so the arrays of a block cost one allocation between
// them; they are handed out in address order, each has exactly its
// class's capacity, none overlaps another, and
// appending past one's capacity copies instead of writing into its
// neighbour. A class too large to fit a block twice makes one array.
func TestArrayPoolCarvesBlocks(t *testing.T) {
	p := NewArrayPool[int64](-1)
	per := arrayBlockBytes / 8 / 2 // class 1: two int64s an array
	var arrays [][]int64
	if got := testing.AllocsPerRun(1, func() {
		arrays = arrays[:0]
		for i := 0; i < per; i++ {
			arrays = append(arrays, p.Get(2))
		}
	}); got != 1 {
		t.Errorf("%d class-1 arrays from an empty class: %v allocations, want one block", per, got)
	}
	if p.Made() != int64(2*per) {
		t.Errorf("made %d arrays, want %d (a block for the warm-up run and one for the measured run)", p.Made(), 2*per)
	}
	seen := map[*int64]bool{}
	for i, a := range arrays {
		if i > 0 && uintptr(unsafe.Pointer(unsafe.SliceData(a))) <= uintptr(unsafe.Pointer(unsafe.SliceData(arrays[i-1]))) {
			t.Fatalf("array %d of a block lies below array %d: not handed out in address order", i, i-1)
		}
		if len(a) != 0 || cap(a) != 2 {
			t.Fatalf("array len %d cap %d, want 0 and 2", len(a), cap(a))
		}
		a = a[:2]
		if seen[&a[0]] || seen[&a[1]] {
			t.Fatal("two carved arrays share an element")
		}
		seen[&a[0]], seen[&a[1]] = true, true
	}
	a, b := arrays[0][:2], arrays[1][:2]
	a[0], a[1], b[0] = 1, 2, 7
	if grown := append(a, 3); &grown[0] == &a[0] || b[0] != 7 {
		t.Error("append past a carved array's capacity wrote into the block")
	}

	big := arrayBlockBytes / 8 // one array fills a block: made alone
	before := p.Made()
	if c := cap(p.Get(big)); c != big || p.Made() != before+1 {
		t.Errorf("class of %d: cap %d, made %d, want one array of exactly that", big, c, p.Made()-before)
	}
}

// TestArrayPoolRecycles: an array given back is the next one of its class
// taken, Grow keeps the contents and gives the outgrown array back, and
// the steady state allocates nothing.
func TestArrayPoolRecycles(t *testing.T) {
	p := NewArrayPool[int64](-1)
	a := p.Get(3)
	if cap(a) != 4 {
		t.Fatalf("Get(3): cap %d, want 4", cap(a))
	}
	p.Put(a)
	if b := p.Get(4); unsafe.SliceData(b) != unsafe.SliceData(a) {
		t.Error("Get after Put returned another array")
	}
	small := append(p.Get(1), 5)
	grown := p.Grow(small, 2)
	if cap(grown) != 2 || len(grown) != 1 || grown[0] != 5 {
		t.Fatalf("Grow: %v cap %d, want [5] cap 2", grown, cap(grown))
	}
	if back := p.Get(1); unsafe.SliceData(back) != unsafe.SliceData(small) {
		t.Error("Grow did not give the outgrown array back to its class")
	}
	if got := testing.AllocsPerRun(100, func() {
		x := p.Grow(p.Get(1), 8)
		p.Put(x)
	}); got != 0 {
		t.Errorf("get, grow, put: %v allocs, want 0", got)
	}
}

// TestArrayPoolPoisons: test binaries poison, so an array given back is
// filled with junk, Release leaves junk behind, and junk itself is never
// filed.
func TestArrayPoolPoisons(t *testing.T) {
	if !Poison {
		t.Fatal("Poison is off in a test binary")
	}
	p := NewArrayPool[int64](-1)
	a := append(p.Get(2), 1, 2)
	kept := p.Release(a)
	if len(kept) != 1 || kept[0] != -1 {
		t.Fatalf("Release left %v, want the junk entry", kept)
	}
	if a[0] != -1 || a[1] != -1 {
		t.Errorf("released array holds %v, want junk", a)
	}
	p.Put(kept)
	if c := p.Get(1); unsafe.SliceData(c) == unsafe.SliceData(kept) {
		t.Error("junk was filed as a class-0 array")
	}
}

// TestArrayPoolConcurrent: arrays taken on one goroutine and given back on
// another, as grafts on different shards do (run it under -race).
func TestArrayPoolConcurrent(t *testing.T) {
	p := NewArrayPool[int64](-1)
	ch := make(chan []int64, 16)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			a := append(p.Get(1+i%5), int64(i))
			ch <- a
		}
		close(ch)
	}()
	go func() {
		defer wg.Done()
		for a := range ch {
			p.Put(p.Grow(a, 2*cap(a)))
		}
	}()
	wg.Wait()
}
