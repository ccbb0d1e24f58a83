package core

import "math"

// computeCongestion implements stage 1 of the algorithm: label every node
// of the session tree CONGESTED or NOT-CONGESTED, compute each node's loss
// rate bottom-up (an internal node's loss is the minimum of its children's
// — if every child must shed load, the parent's effective demand drops to
// the least-loaded child's level), and record the maximum bytes received by
// any receiver in each subtree (used later to estimate shared-link
// capacities). Also derives each node's current subscription level as the
// maximum over its subtree's receivers.
func (a *Algorithm) computeCongestion(p *sessionPass) {
	// Bottom-up: leaves first. BFS order puts every child after its parent,
	// so walking the local indices backwards visits children first.
	for i := int32(len(p.nodes)) - 1; i >= 0; i-- {
		lo, hi := p.children(i)
		loss := math.Inf(1)
		var bytes int64
		level := 0
		for c := lo; c < hi; c++ {
			if p.loss[c] < loss {
				loss = p.loss[c]
			}
			if p.subBytes[c] > bytes {
				bytes = p.subBytes[c]
			}
			if p.level[c] > level {
				level = p.level[c]
			}
		}
		// A receiver attached at this node (leaf, or a transit host with a
		// local member) contributes like a virtual child.
		if r := p.report[i]; r != nil && p.recv[i] {
			if r.LossRate < loss {
				loss = r.LossRate
			}
			if r.Bytes > bytes {
				bytes = r.Bytes
			}
			if r.Level > level {
				level = r.Level
			}
		}
		if math.IsInf(loss, 1) {
			// No children and no report: a receiver node the controller has
			// not heard from yet. Assume no loss.
			loss = 0
		}
		p.loss[i] = loss
		p.subBytes[i] = bytes
		p.level[i] = level
		count := 0
		if p.recv[i] {
			count = 1
		}
		for c := lo; c < hi; c++ {
			count += p.recvCount[c]
		}
		p.recvCount[i] = count

		if lo == hi {
			// "A leaf node is congested if the packet loss rate at that
			// node is higher than a threshold."
			p.congest[i] = p.loss[i] > a.cfg.PThreshold
			continue
		}
		p.congest[i] = a.internalSelfCongested(p, i)
	}
	// Top-down: an internal node is also congested when its parent is.
	for i := range p.nodes {
		par := p.parent[i]
		if par < 0 {
			continue
		}
		if p.congest[par] && !p.isLeaf(int32(i)) {
			p.congest[i] = true
		}
	}
}

// internalSelfCongested applies the paper's rule: an internal node is
// congested (on its own account) when every child's loss exceeds
// p_threshold and at least η_similar of the children have losses close to
// the mean child loss — i.e. the children are losing together, pointing at
// the shared upstream link rather than at independent downstream
// bottlenecks.
func (a *Algorithm) internalSelfCongested(p *sessionPass, i int32) bool {
	lo, hi := p.children(i)
	if lo == hi {
		return false
	}
	mean := 0.0
	for c := lo; c < hi; c++ {
		if p.loss[c] <= a.cfg.PThreshold {
			return false
		}
		mean += p.loss[c]
	}
	mean /= float64(hi - lo)
	similar := 0
	for c := lo; c < hi; c++ {
		if math.Abs(p.loss[c]-mean) <= a.cfg.SimilarBand*mean {
			similar++
		}
	}
	return float64(similar) >= a.cfg.EtaSimilar*float64(hi-lo)
}
