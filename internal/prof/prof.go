// Package prof wires runtime/pprof collection to the -cpuprofile and
// -memprofile flags of the command-line tools. It exists so topobench and
// toposim share one implementation of the awkward parts: starting the CPU
// profile before the work, and flushing both profiles explicitly because
// the tools end with os.Exit, which skips deferred calls.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling to cpuPath and arranges a heap profile at
// memPath; either path may be empty to skip that profile. It returns a
// stop function that ends the CPU profile and writes the heap profile —
// call it right after the workload of interest, before any os.Exit. The
// stop function is idempotent.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		cpuFile = f
	}
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memPath != "" {
			return WriteHeap(memPath)
		}
		return nil
	}, nil
}

// WriteHeap writes a heap profile to path. Its allocation counts are
// cumulative since the process started, so the difference of two profiles
// (go tool pprof -diff_base) is what was allocated between them.
func WriteHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	runtime.GC() // settle allocation statistics before the snapshot
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("heap profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	return nil
}
