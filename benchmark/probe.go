package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The reference probe. This shared box slows down by 10-200 % for seconds
// to minutes at a time, from outside the VM, in a way nothing inside it
// reports (see "Sizing" in README.md), and a run cannot outlast that. So a
// timed rep advances its measured phase in probeSlices slices with a short
// fixed loop of the benchmark's own between them, and reports host times at
// that loop's quiet-box speed:
//
//	reported = measured × probeRefNS / (the rep's probe ns per op)
//
// The loop shares no code with the program and its time is not part of
// what is measured. It is shaped like the simulator's inner loop —
// hold-model steps on a 32 k-entry binary heap, each touching two random
// cache lines of a 64 MB arena — because the slowdowns are mostly memory
// contention, which a register-only loop does not feel. The raw
// measurements and the probe's own speed are reported as
// benchmark.*_raw_s and benchmark.probe_ns_per_op, so nothing is hidden:
// raw = reported × probe_ns_per_op / probeRefNS.
const (
	probeSlices   = 200
	probeOps      = 4000  // per slice
	probeRefNS    = 262.0 // ns per op on the reference box when quiet
	probeArenaLen = 8 << 20
	probeArenaMB  = probeArenaLen * 8 / (1 << 20)
)

type probeState struct {
	mem   []byte
	arena []uint64 // mem as words; mapped outside the Go heap, so the GC's pacing never sees it
	heap  []int64
	x     uint64

	ops       int
	wall, cpu time.Duration
}

func newProbe() (*probeState, error) {
	mem, err := syscall.Mmap(-1, 0, probeArenaLen*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	p := &probeState{
		mem:   mem,
		arena: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), probeArenaLen),
		heap:  make([]int64, 1<<15),
		x:     88172645463325252,
	}
	for i := range p.heap {
		p.heap[i] = int64(i) * 7919 % 1000003
	}
	for i := range p.arena { // every page resident before the first timing: peak RSS subtracts exactly the arena
		p.arena[i] = uint64(i)
	}
	return p, nil
}

func (p *probeState) close() { _ = syscall.Munmap(p.mem) } // a failed unmap only leaks until exit

// step runs probeOps steps and adds their wall and CPU time to the totals.
func (p *probeState) step() {
	h, n, x := p.heap, len(p.heap), p.x
	mask := uint64(len(p.arena) - 1)
	cpu0 := cpuTime()
	t0 := time.Now()
	for k := 0; k < probeOps; k++ {
		x ^= x << 13 // xorshift64
		x ^= x >> 7
		x ^= x << 17
		a := &p.arena[x&mask]
		*a += x
		p.arena[(x>>23)&mask] ^= *a
		h[0] += int64(x>>44) + 1
		for i := 0; ; {
			l := 2*i + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && h[r] < h[l] {
				l = r
			}
			if h[i] <= h[l] {
				break
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
	}
	p.wall += time.Since(t0)
	p.cpu += cpuTime() - cpu0
	p.ops += probeOps
	p.x = x
}

// wallNS and cpuNS are the probe's cost per op so far.
func (p *probeState) wallNS() float64 { return float64(p.wall) / float64(p.ops) }
func (p *probeState) cpuNS() float64  { return float64(p.cpu) / float64(p.ops) }
