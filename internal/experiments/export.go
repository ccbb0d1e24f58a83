package experiments

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"time"
)

// Export is the schema of the machine-readable result file the -json
// flags write (conventionally BENCH_*.json): enough run metadata to
// compare perf trajectories across commits, plus every per-run Result.
// The schema is documented for consumers in EXPERIMENTS.md.
type Export struct {
	// Tool names the producer ("topobench" or "toposim").
	Tool string `json:"tool"`
	// GeneratedAt is the UTC RFC 3339 creation time.
	GeneratedAt string `json:"generated_at"`
	// GoMaxProcs is runtime.GOMAXPROCS(0) on the producing machine.
	GoMaxProcs int `json:"gomaxprocs"`
	// Parallelism is the -parallel setting the sweep ran with (0 =
	// GOMAXPROCS).
	Parallelism int   `json:"parallelism"`
	Seed        int64 `json:"seed"`
	Quick       bool  `json:"quick"`
	// WallSeconds is the whole sweep's wall-clock time.
	WallSeconds float64 `json:"wall_seconds"`
	// TotalEvents sums Events over all Results.
	TotalEvents uint64 `json:"total_events"`
	// EventsPerSecond is TotalEvents / WallSeconds: the sweep's aggregate
	// event throughput across all workers (per-run throughput lives in each
	// Result).
	EventsPerSecond float64 `json:"events_per_second"`
	// AllocsPerEvent is the number of heap allocations per simulator event
	// across the sweep, measured from runtime.MemStats.Mallocs around the
	// runner. It covers the whole process — engine, packet plane, metrics
	// and report rendering — so it is an upper bound on hot-path allocation
	// and the headline number the pooling work drives down.
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// Results holds one entry per executed Spec, in sweep order.
	Results []Result `json:"results"`
}

// Measure runs sweep between two reads of the process-wide heap allocation
// count (runtime.MemStats.Mallocs) and returns the export describing it:
// creation time, GOMAXPROCS, wall clock, the results, and the totals
// derived from them. The caller fills in Parallelism and Quick.
func Measure(tool string, seed int64, sweep func() []Result) Export {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	results := sweep()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	ex := Export{
		Tool:        tool,
		GeneratedAt: start.UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Seed:        seed,
		WallSeconds: wall.Seconds(),
		Results:     results,
	}
	for _, r := range results {
		ex.TotalEvents += r.Events
	}
	if ex.WallSeconds > 0 {
		ex.EventsPerSecond = float64(ex.TotalEvents) / ex.WallSeconds
	}
	if ex.TotalEvents > 0 {
		ex.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(ex.TotalEvents)
	}
	return ex
}

// WriteJSON writes the export to w as indented JSON.
func (ex Export) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ex)
}

// WriteFile creates or truncates path, hands it to write — an export's,
// obs dump's or series' writer method — and closes it, reporting the first
// error.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
