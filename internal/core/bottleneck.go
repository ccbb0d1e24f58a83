package core

import "math"

// computeBottlenecks implements stage 3. Top-down, each node's bottleneck
// bandwidth is the minimum estimated capacity on its path from the source.
// Bottom-up, each node's "maximum bandwidth it can handle" is the maximum
// bottleneck over its children — a parent serving a fast subtree and a slow
// subtree must itself carry what the fast subtree can take.
func (a *Algorithm) computeBottlenecks(p *sessionPass) {
	for i := range p.nodes { // top-down
		par := p.parent[i]
		if par < 0 {
			p.bneck[i] = math.Inf(1)
			continue
		}
		p.bneck[i] = math.Min(p.bneck[par], a.edgeLink(p, i).capacity)
	}
	for i := int32(len(p.nodes)) - 1; i >= 0; i-- { // bottom-up
		lo, hi := p.children(i)
		if lo == hi {
			p.maxBW[i] = p.bneck[i]
			continue
		}
		max := 0.0
		for c := lo; c < hi; c++ {
			if p.maxBW[c] > max {
				max = p.maxBW[c]
			}
		}
		// A transit node with its own receiver can itself demand up to its
		// bottleneck.
		if p.recv[i] && p.bneck[i] > max {
			max = p.bneck[i]
		}
		p.maxBW[i] = max
	}
}
