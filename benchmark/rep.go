package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"toposense/internal/core"
	"toposense/internal/metrics"
	"toposense/internal/netsim"
	"toposense/internal/sim"
	"toposense/internal/source"
)

// repResult is what one child process reports on its standard output: one
// set-up and one measured phase of one workload, and — in the traced run —
// the numbers taken with tracing on and the layer drives.
type repResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Timed holds host-dependent measurements (host seconds, bytes,
	// allocations); the parent reports their median over reps.
	Timed map[string]float64 `json:"timed"`
	// Exact holds pure functions of (workload, seed): exported counters read
	// after the run and the model's outputs. Every rep must report the same.
	Exact map[string]float64 `json:"exact"`
	// Digest hashes Exact and every slot's final level.
	Digest string `json:"sim_digest"`
	// Slots is the number of receiver slots, the run's operations.
	Slots int `json:"slots"`
	// Failures lists the run-level checks this rep failed.
	Failures []string `json:"failures,omitempty"`
	// Layer holds the traced run's samples and the drives' results.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the resident-set high-water mark of this process's own
// address space, VmHWM (ru_maxrss can carry the parent's over fork and
// exec).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// A timed rep sets up at most maxSetups worlds, and stops adding worlds
// once the extra ones have cost setupBudget of host time: a couple of
// 10 000-receiver trees, or two hundred 34-node paper topologies.
const (
	maxSetups   = 200
	setupBudget = 250 * time.Millisecond
)

// runRep sets wl's world up, runs its measured phase to the fixed simulated
// deadline and reads every counter. With traced set it also attaches the
// counting probe and the core replay, advances in 1-simulated-second slices,
// runs the layer drives and writes the span file into outDir.
func runRep(wl workload, seed int64, traced bool, outDir string) (repResult, error) {
	res := repResult{Workload: wl.Name, Seed: seed, Traced: traced,
		Timed: map[string]float64{}, Exact: map[string]float64{}}
	var rec *spanRec
	var tr *tracer
	var hook func(*scenario)
	if traced {
		rec = newSpanRec(fmt.Sprintf("%s-seed%d-%d", wl.Name, seed, time.Now().UnixNano()))
		tr = &tracer{rec: rec}
		hook = tr.attach
		res.Layer = map[string]float64{}
	}

	var sc *scenario
	var err error
	setup := rec.timed("setup", 0, func(id int) {
		sc, err = assemble(wl, seed, rec, id, hook)
	})
	if err != nil {
		return res, err
	}

	// The measured phase. A timed rep runs it in probeSlices slices with
	// the reference probe between them; only the slices count as run time.
	deadline := sim.FromSeconds(wl.SimS)
	var probe *probeState
	if !traced {
		if probe, err = newProbe(); err != nil {
			return res, err
		}
		defer probe.close()
	}
	var run, cpu time.Duration
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if traced {
		cpu0 := cpuTime()
		run = rec.timed("run", 0, func(id int) { tr.runSliced(sc, deadline, id) })
		cpu = cpuTime() - cpu0
	} else {
		for i := 1; i <= probeSlices; i++ {
			cpu0, t0 := cpuTime(), time.Now()
			sc.engine.RunUntil(deadline * sim.Time(i) / probeSlices)
			run += time.Since(t0)
			cpu += cpuTime() - cpu0
			probe.step()
		}
	}
	runtime.ReadMemStats(&m1)
	rss := peakRSSMB()
	if probe != nil {
		rss -= probeArenaMB
	}

	levels := sc.collect(res.Exact, &res.Failures)
	res.Slots = len(levels)
	res.Digest = digest(res.Exact, levels)
	if sc.engine.Now() != deadline {
		res.Failures = append(res.Failures, fmt.Sprintf("engine stopped at %v, deadline %v", sc.engine.Now(), deadline))
	}

	// Set-up is short — a millisecond on the smallest world — so one sample
	// of it is mostly noise. With the measured phase over and measured, set
	// up a few more worlds, never run, and report each step's median.
	t := res.Timed
	setups := map[string][]float64{}
	note := func(s *scenario, total time.Duration) {
		for name, v := range map[string]float64{
			"setup_s": total.Seconds(), "topology.generate_ms": ms(s.generate), "experiments.assemble_ms": ms(s.assemble),
			"experiments.start_ms": ms(s.start), "churn.slots_ms": ms(s.slots),
		} {
			setups[name] = append(setups[name], v)
		}
	}
	note(sc, setup)
	for extra := time.Duration(0); !traced && len(setups["setup_s"]) < maxSetups && extra < setupBudget; {
		t0 := time.Now()
		again, err := assemble(wl, seed, nil, 0, nil)
		if err != nil {
			return res, err
		}
		d := time.Since(t0)
		extra += d
		note(again, d) // the world itself is dropped
	}
	for name, xs := range setups {
		t[name] = median(xs)
	}

	c := sc.world.Controller
	t["run_s"] = run.Seconds()
	t["cpu_s"] = cpu.Seconds()
	t["peak_rss_mb"] = rss
	t["allocs_per_pkt_hop"] = float64(m1.Mallocs-m0.Mallocs) / res.Exact["netsim.pkt_hops"]
	t["controller.pass_ms_mean"] = float64(c.PassWallNanos) / 1e6 / float64(c.StepsRun)
	t["controller.pass_ms_max"] = float64(c.PassWallMaxNanos) / 1e6
	t["benchmark.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	t["benchmark.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)

	// Keep the measurements as taken, and report host times at the probe's
	// quiet-box speed (see probe.go). The traced run has no probe: its
	// end-to-end numbers are never reported.
	t["benchmark.probe_ns_per_op"] = probeRefNS
	wallScale, cpuScale := 1.0, 1.0
	if probe != nil {
		t["benchmark.probe_ns_per_op"] = probe.wallNS()
		wallScale, cpuScale = probeRefNS/probe.wallNS(), probeRefNS/probe.cpuNS()
	}
	for name, scale := range map[string]float64{"run": wallScale, "cpu": cpuScale, "setup": wallScale} {
		t["benchmark."+name+"_raw_s"] = t[name+"_s"]
		t[name+"_s"] *= scale
	}

	if traced {
		tr.finish(sc, res.Layer, &res.Failures)
		_ = rec.timed("drive", 0, func(id int) {
			driveWorld(sc, rec, id, res.Layer)
			driveLayers(wl, seed, int(res.Layer["sim.peak_pending"]), rec, id, res.Layer)
		})
		if err := rec.write(filepath.Join(outDir, "trace-"+wl.Name+".json")); err != nil {
			return res, err
		}
	}
	return res, nil
}

// collect reads every exported counter of the quiesced world into exact,
// runs the per-link and per-slot checks, and returns each slot's final
// level (0 for a departed churn slot).
func (sc *scenario) collect(exact map[string]float64, failures *[]string) []int {
	w, e := sc.world, sc.engine
	fail := func(format string, args ...any) {
		if len(*failures) < 20 { // one broken invariant fails thousands of links alike
			*failures = append(*failures, fmt.Sprintf(format, args...))
		}
	}

	var hops, drops, enq int64
	peakQ := 0
	links := w.Net.Links()
	for _, l := range links {
		st := l.Stats()
		hops += st.Delivered
		drops += st.Dropped
		enq += st.Enqueued
		if st.PeakQueue > peakQ {
			peakQ = st.PeakQueue
		}
		if st.Delivered > st.Enqueued || st.Enqueued > st.Delivered+int64(l.QueueLimit)+1 {
			fail("link %v: delivered %d, enqueued %d, queue limit %d", l, st.Delivered, st.Enqueued, l.QueueLimit)
		}
	}
	exact["sim.events"] = float64(e.Fired())
	exact["sim.events_per_pkt_hop"] = float64(e.Fired()) / float64(hops)
	exact["sim.event_slot_allocs"] = float64(e.EventAllocs())
	exact["netsim.pkt_hops"] = float64(hops)
	exact["netsim.drops"] = float64(drops)
	exact["netsim.drop_share"] = float64(drops) / float64(enq+drops)
	exact["netsim.peak_queue"] = float64(peakQ)

	ss := w.Domain.StateStats()
	exact["mcast.grafts"] = float64(w.Domain.Grafts)
	exact["mcast.prunes"] = float64(w.Domain.Prunes)
	exact["mcast.table_bytes"] = float64(ss.Bytes)
	exact["mcast.table_entries"] = float64(ss.Entries)
	if a := w.Aggregator; a != nil {
		exact["mcast.agg_absorbed"] = float64(a.Absorbed)
		exact["mcast.agg_merged"] = float64(a.Merged)
		exact["mcast.agg_flushes"] = float64(a.Flushes)
		exact["mcast.agg_purged"] = float64(a.Purged)
	} else {
		for _, k := range []string{"absorbed", "merged", "flushes", "purged"} {
			exact["mcast.agg_"+k] = 0
		}
	}

	var sent int64
	for _, s := range w.Sources {
		for k := 1; k <= s.Layers(); k++ {
			sent += s.Sent(k)
		}
	}
	exact["source.pkts_sent"] = float64(sent)

	rc := sc.departed
	unreached := 0
	var levels []int
	for s := range w.Receivers {
		for i := range w.Receivers[s] {
			rx := sc.live(s, i)
			lvl := 0
			if rx != nil {
				lvl = rx.Level()
				rc.add(rx)
				if rx.SuggestionsRecv == 0 {
					unreached++
				}
				if lvl == 0 {
					fail("slot s%d/%d: live receiver at level 0", s, i)
				}
			}
			if lvl < 0 || lvl > source.DefaultLayers {
				fail("slot s%d/%d: final level %d outside [0, %d]", s, i, lvl, source.DefaultLayers)
			}
			levels = append(levels, lvl)
		}
	}
	exact["receiver.reports_sent"] = float64(rc.Reports)
	exact["receiver.suggestions_recv"] = float64(rc.Suggestions)
	exact["receiver.unilateral_drops"] = float64(rc.Unilateral)
	exact["receiver.duplicates"] = float64(rc.Duplicates)
	exact["receiver.unreached"] = float64(unreached)

	c := w.Controller
	exact["controller.passes"] = float64(c.StepsRun)
	exact["controller.reports_recv"] = float64(c.ReportsRecv)
	exact["controller.suggestions_sent"] = float64(c.SuggestionsSent)
	exact["controller.aggregates_recv"] = float64(c.AggregatesRecv)
	exact["controller.batches_sent"] = float64(c.BatchesSent)
	exact["controller.deregisters_recv"] = float64(c.DeregistersRecv)
	exact["controller.registered_end"] = float64(len(c.RegisteredReceivers()))
	exact["controller.ctl_msgs_per_pass"] = float64(c.CtlMsgsRecv) / float64(c.StepsRun)
	exact["topodisc.discoveries"] = float64(w.Tool.Discoveries)
	exact["topology.nodes"] = float64(w.Net.NumNodes())
	exact["topology.links"] = float64(len(links))
	exact["topology.receivers"] = float64(len(levels))
	exact["churn.joins"], exact["churn.leaves"] = 0, 0
	if sc.driver != nil {
		exact["churn.joins"] = float64(sc.driver.Joins)
		exact["churn.leaves"] = float64(sc.driver.Leaves)
	}

	until := sim.FromSeconds(sc.wl.SimS)
	traces, optima := w.AllTraces()
	dev := metrics.MeanRelativeDeviation(traces, optima, 0, until)
	exact["metrics.mean_dev"] = dev
	exact["mean_fit"] = 1 - dev
	exact["max_changes"] = float64(metrics.MaxChanges(traces, 0, until))
	exact["ctl_bytes_per_rx"] = float64(c.CtlBytesRecv) / float64(len(levels))
	return levels
}

// digest hashes a run's exact numbers and final levels: two runs of the
// same (workload, seed) must agree on it, traced or not.
func digest(exact map[string]float64, levels []int) string {
	keys := make([]string, 0, len(exact))
	for k := range exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(exact[k], 'g', -1, 64))
		b.WriteByte('\n')
	}
	fmt.Fprintln(&b, levels)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))[:16]
}

// tracer is the traced run's instrumentation, all of it attached through
// the program's public hooks: a counting probe on every link, the
// controller's OnStep feeding a shadow algorithm, and Pending() sampled
// between 1-simulated-second slices.
type tracer struct {
	rec   *spanRec
	probe netsim.CountingProbe
	slice int // span ID of the slice being run, parent of core.step spans

	stepNS, stepMaxNS    int64
	steps, reports, sugs int64
	stepMismatch         int
	peakPending          int
	sliceMS              []float64
}

// attach wires the probe and the core replay into the assembled world.
// The shadow algorithm gets the same configuration and the same RNG seed
// as the controller's own (experiments.NewWorld seeds it with Seed+1), so
// replaying each pass's input must reproduce each pass's output.
func (tr *tracer) attach(sc *scenario) {
	sc.build.Net.AttachProbe(&tr.probe)
	c := sc.world.Controller
	shadow := core.New(c.Algorithm().Config(), rand.New(rand.NewSource(sc.seed+1)))
	c.OnStep = func(_ sim.Time, in core.Input, out []core.Suggestion) {
		var got []core.Suggestion
		d := tr.rec.timed("core.step", tr.slice, func(int) { got = shadow.Step(in) })
		tr.steps++
		tr.stepNS += int64(d)
		if int64(d) > tr.stepMaxNS {
			tr.stepMaxNS = int64(d)
		}
		tr.reports += int64(len(in.Reports))
		tr.sugs += int64(len(got))
		if !sameSuggestions(got, out) {
			tr.stepMismatch++
		}
	}
}

func sameSuggestions(a, b []core.Suggestion) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runSliced advances the measured phase one simulated second at a time.
func (tr *tracer) runSliced(sc *scenario, deadline sim.Time, parent int) {
	e := sc.engine
	for t := sim.Time(0); t < deadline; {
		t += sim.Second
		if t > deadline {
			t = deadline
		}
		d := tr.rec.timed("slice", parent, func(id int) {
			tr.slice = id
			e.RunUntil(t)
		})
		tr.sliceMS = append(tr.sliceMS, ms(d))
		if p := e.Pending(); p > tr.peakPending {
			tr.peakPending = p
		}
	}
}

// finish turns the samples into layer metrics and runs the traced-run
// checks: the probe must have seen exactly what the links counted.
func (tr *tracer) finish(sc *scenario, layer map[string]float64, failures *[]string) {
	var drops, enq int64
	for _, l := range sc.world.Net.Links() {
		drops += l.Stats().Dropped
		enq += l.Stats().Enqueued
	}
	if tr.probe.Drops != drops || tr.probe.Enqueues != enq {
		*failures = append(*failures, fmt.Sprintf("probe saw %d enqueues and %d drops, links counted %d and %d",
			tr.probe.Enqueues, tr.probe.Drops, enq, drops))
	}
	if tr.stepMismatch > 0 {
		*failures = append(*failures, fmt.Sprintf("core replay disagreed with the controller on %d of %d passes", tr.stepMismatch, tr.steps))
	}
	sort.Float64s(tr.sliceMS)
	layer["sim.peak_pending"] = float64(tr.peakPending)
	layer["sim.slice_ms_p50"] = median(tr.sliceMS)
	layer["sim.slice_ms_max"] = tr.sliceMS[len(tr.sliceMS)-1]
	layer["netsim.probe_enqueues"] = float64(tr.probe.Enqueues)
	layer["netsim.probe_delivers"] = float64(tr.probe.Delivers)
	layer["core.step_ms_mean"] = float64(tr.stepNS) / 1e6 / float64(tr.steps)
	layer["core.step_ms_max"] = float64(tr.stepMaxNS) / 1e6
	// The traced pass contains the controller's own step and the shadow's;
	// taking the shadow's out leaves what an untraced pass costs.
	layer["core.step_share"] = float64(tr.stepNS) / float64(sc.world.Controller.PassWallNanos-tr.stepNS)
	layer["core.reports_per_step"] = float64(tr.reports) / float64(tr.steps)
	layer["core.suggestions_per_step"] = float64(tr.sugs) / float64(tr.steps)
}
