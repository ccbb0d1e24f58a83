package core

import (
	"math"
	"sort"

	"toposense/internal/sim"
)

// estimateCapacities implements stage 2 ("Estimate link bandwidths for all
// shared links"): maintain a capacity estimate for every link carried by
// two or more sessions. A shared link starts at infinity and is pinned to
// the observed throughput only when (1) the aggregate loss at the link's
// destination exceeds p_threshold and (2) every session sharing the link
// sees loss above p_threshold there — the paper's guard against blaming a
// shared link for one session's downstream bottleneck.
//
// Links carried by a single session are never pinned: with one receiver
// behind an edge the algorithm cannot localize its loss to that edge (the
// loss could be anywhere on the path), and a bad pin would starve the
// session until the next reset. Single-session bottlenecks are controlled
// reactively by the Table-I demand computation instead; capacity estimates
// exist to drive the inter-session sharing stage, which only concerns
// shared links.
// Finite estimates grow by CapacityGrowth each interval (reports can lag
// actual transmission) and all estimates reset to infinity every
// CapacityResetPeriod so that transient flows or downstream bottlenecks do
// not poison them forever.
func (a *Algorithm) estimateCapacities(now sim.Time, passes []*sessionPass) {
	// Periodic per-link reset: every pinned estimate expires back to
	// infinity after CapacityResetPeriod plus a random fraction, so that
	// independent subtrees re-explore at different times instead of
	// crashing in lockstep.
	for k := range a.links {
		if ls := &a.links[k]; !math.IsInf(ls.capacity, 1) && now >= ls.resetAt {
			ls.capacity = math.Inf(1)
		}
	}

	// Fold every session's observation of an edge into the edge's row.
	s := &a.scratch
	for _, p := range passes {
		for i := 1; i < len(p.nodes); i++ { // every node but the root has an edge
			e := &s.edges[p.edge[i]]
			bytes := float64(p.subBytes[i])
			e.bits += bytes * 8
			e.weighted += p.loss[i] * bytes
			e.volume += bytes
			e.quiet = e.quiet || p.loss[i] <= a.cfg.PThreshold
			e.receivers += p.recvCount[i]
			e.congested = e.congested || p.congest[i]
		}
	}

	interval := a.cfg.Interval.Seconds()
	s.pins = s.pins[:0]
	for k := range s.edges {
		e := &s.edges[k]
		ls := &a.links[e.link]

		// Record this interval's observed throughput: what the receivers
		// demonstrably got through the link, summed over sessions (each
		// session contributes its best subtree receiver).
		ls.recordObserved(e.bits / interval)

		// Grow an existing finite estimate. A finite estimate is kept until
		// the periodic reset: the interval right after a drop observes the
		// queue-drain/leave-latency transient and would badly under-estimate
		// if allowed to re-pin ("links are assumed to be of infinite
		// capacity until ..." — estimation happens at the transition).
		if !math.IsInf(ls.capacity, 1) {
			ls.capacity *= 1 + a.cfg.CapacityGrowth
			continue
		}

		// An edge is only pinnable when at least two independent observers
		// sit behind it — several sessions, or several receivers of one
		// session whose correlated losses the congestion stage attributed
		// to this subtree. A single observer cannot localize its loss to
		// any particular edge of its path, and a wrong pin would starve it
		// until the next reset.
		if !a.cfg.PinSingleObserver && e.users < 2 && (e.receivers < 2 || !e.congested) {
			continue
		}

		// Conditions: every session's loss above threshold, and the
		// volume-weighted aggregate loss above threshold too.
		if e.quiet || e.volume == 0 || e.weighted/e.volume <= a.cfg.PThreshold {
			continue
		}
		// Pin to the best recent throughput: the loss conditions often
		// first hold on the drain interval after a drop, whose low byte
		// counts would freeze the link far below its true capacity for a
		// whole reset period. The preceding congested interval measured
		// what the link can actually carry.
		observed := ls.maxObserved()
		if observed <= 0 {
			continue
		}
		ls.capacity = observed
		s.pins = append(s.pins, e.link)
	}

	// Each pin draws its reset jitter, in ascending (From, To) order.
	s.pinSorter.links, s.pinSorter.s = a.links, s.pins
	sort.Sort(&s.pinSorter)
	for _, k := range s.pins {
		jitter := sim.Time(a.rng.Int63n(int64(a.cfg.CapacityResetPeriod)/2 + 1))
		a.links[k].resetAt = now + a.cfg.CapacityResetPeriod + jitter
	}
}
