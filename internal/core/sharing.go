package core

import "math"

// shareBandwidth implements stage 4: on every link carrying more than one
// session and having a finite capacity estimate, split the capacity among
// the sessions. Following the paper, each session's weight is its "maximum
// possible demand" — the layers it could use at that link if every other
// session took only its base layer — computed top-down per session and then
// folded bottom-up (an internal node's possible demand is the max over its
// children). The fair share of session i is then w_i·B/Σw_j, never below
// the base-layer rate. Weights are taken in bandwidth units (the cumulative
// rate of the possible demand) rather than raw layer counts, since layers
// double in rate and a layer-count ratio would starve high-rate sessions.
// Each pass's share column receives its session's share of the edge above
// every node, +Inf where the edge is unshared or unpinned.
func (a *Algorithm) shareBandwidth(passes []*sessionPass) {
	s := &a.scratch
	base := a.cfg.LayerRates[0]

	// Per session: top-down "available if others at base" bandwidth.
	for _, p := range passes {
		for i := range p.nodes {
			par := p.parent[i]
			if par < 0 {
				p.avail[i] = math.Inf(1)
				continue
			}
			bw := math.Inf(1)
			if c := a.edgeLink(p, i).capacity; !math.IsInf(c, 1) {
				// Subtract the base layers of the other sessions on the edge.
				bw = c - float64(s.edges[p.edge[i]].users-1)*base
				if bw < base {
					bw = base // a session is never assumed below its base layer
				}
			}
			p.avail[i] = math.Min(p.avail[par], bw)
		}
	}

	// Per session: bottom-up "maximum possible demand" in layers.
	for _, p := range passes {
		for i := int32(len(p.nodes)) - 1; i >= 0; i-- {
			lo, hi := p.children(i)
			if lo == hi {
				p.possible[i] = a.cfg.LevelFor(p.avail[i])
				continue
			}
			max := 0
			for c := lo; c < hi; c++ {
				if p.possible[c] > max {
					max = p.possible[c]
				}
			}
			if p.recv[i] {
				if own := a.cfg.LevelFor(p.avail[i]); own > max {
					max = own
				}
			}
			p.possible[i] = max
		}
	}

	// Fair shares on shared, finitely-estimated edges: the weights are
	// summed in pass order before any share is taken.
	for _, p := range passes {
		for i := 1; i < len(p.nodes); i++ {
			if e := &s.edges[p.edge[i]]; a.sharedEdge(e) {
				e.weights += a.shareWeight(p, i)
			}
		}
	}
	for _, p := range passes {
		for i := 1; i < len(p.nodes); i++ {
			share := math.Inf(1)
			if e := &s.edges[p.edge[i]]; a.sharedEdge(e) {
				share = a.links[e.link].capacity * a.shareWeight(p, i) / e.weights
				if share < base {
					share = base
				}
			}
			p.share[i] = share
		}
	}
}

// sharedEdge reports whether stage 4 splits the edge: two or more sessions
// cross it and its capacity is estimated.
func (a *Algorithm) sharedEdge(e *edgeRow) bool {
	return e.users >= 2 && !math.IsInf(a.links[e.link].capacity, 1)
}

// shareWeight is the fair-share weight of local node i's session on the
// edge above i: the rate of its possible demand there, at least one layer.
func (a *Algorithm) shareWeight(p *sessionPass, i int) float64 {
	return a.cfg.CumRate(max(p.possible[i], 1))
}
