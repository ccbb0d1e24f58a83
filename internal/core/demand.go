package core

import (
	"math"

	"toposense/internal/sim"
)

// computeDemand implements the demand half of stage 5: a bottom-up,
// breadth-first pass where each leaf consults Table I and each internal
// node aggregates its children's demands (the max, since layers are
// cumulative and a parent link must carry the union) before applying its
// own Table-I row. Two coordination rules from the paper:
//
//   - If a node's parent is congested, the node defers action to the parent
//     — congestion in a subtree is handled by the subtree's root.
//   - When a node reduces demand, a back-off timer is armed for each layer
//     being dropped, so no receiver in that subtree re-adds those layers
//     until the timer expires. (The paper arms the highest dropped layer;
//     we arm every dropped layer, which is equivalent under one-at-a-time
//     adds and also robust when a reduction sheds several layers at once.)
func (a *Algorithm) computeDemand(now sim.Time, p *sessionPass) {
	for i := int32(len(p.nodes)) - 1; i >= 0; i-- {
		level := p.level[i]
		st := &p.sess.nodes[p.state[i]]
		hist, rel := a.tableInputs(st, p, i)

		par := p.parent[i]
		parentCongested := par >= 0 && p.congest[par]
		leaf := p.isLeaf(i)

		var act Action
		if leaf {
			act = LeafAction(hist, rel)
			if parentCongested {
				// Defer to the subtree root: it will reduce for everyone.
				p.demand[i] = level
			} else {
				p.demand[i] = a.leafDemand(now, p, i, level, st, act)
			}
		} else {
			// Internal: aggregate children (plus a co-located receiver).
			agg := 0
			for c, end := p.children(i); c < end; c++ {
				if p.demand[c] > agg {
					agg = p.demand[c]
				}
			}
			if p.recv[i] && level > agg {
				agg = level
			}
			act = InternalAction(hist, rel)
			if parentCongested {
				p.demand[i] = agg
			} else {
				p.demand[i] = a.internalDemand(now, p, i, level, agg, st, act)
			}
		}

		if p.decisions != nil {
			p.decisions[i] = Decision{
				At:        now,
				Session:   p.topo.Session,
				Node:      p.nodes[i],
				Leaf:      leaf,
				Congested: p.congest[i],
				Hist:      hist,
				Rel:       rel,
				Action:    act,
				Deferred:  parentCongested,
				Cooling:   a.coolingDown(now, st),
				Level:     level,
				Demand:    p.demand[i],
			}
		}
	}
}

// tableInputs assembles the Table-I keys for local node i: the 3-bit
// congestion history ending with the current interval, and the BW relation
// between the two preceding intervals' byte counts.
func (a *Algorithm) tableInputs(st *nodeState, p *sessionPass, i int32) (uint8, BWRel) {
	bit := uint8(0)
	if p.congest[i] {
		bit = 1
	}
	hist := ((st.hist << 1) | bit) & 7
	rel := CompareBW(st.bwPrev, p.subBytes[i], a.cfg.BWEqualTol)
	return hist, rel
}

// supplies returns the old (T0–Tn) and recent (Tn–T2n) allocated levels.
func supplies(st *nodeState) (old, recent int) {
	return st.supplyPrev2, st.supplyPrev
}

// coolingDown reports whether the node's supply was reduced within the last
// two intervals. The reports the controller acts on lag the reduction by the
// feedback latency plus the bottleneck drain (queue flush and group-leave
// latency, often longer than one interval on slow links), so a further cut
// inside that window would compound reductions on stale feedback and
// overshoot far below the sustainable level.
func (a *Algorithm) coolingDown(now sim.Time, st *nodeState) bool {
	if a.cfg.DisableCooldown || st.lastReduce == 0 {
		return false
	}
	return now-st.lastReduce < 2*a.cfg.Interval+a.cfg.Interval/2
}

func (a *Algorithm) leafDemand(now sim.Time, p *sessionPass, i int32, level int, st *nodeState, act Action) int {
	oldSupply, _ := supplies(st)
	if a.coolingDown(now, st) && act != ActAdd && act != ActMaintain {
		return level
	}
	switch act {
	case ActAdd:
		next := level + 1
		if next > a.cfg.MaxLevel() {
			return level
		}
		if a.backingOff(now, p, i, next) {
			return level
		}
		return next
	case ActMaintain:
		return level
	case ActDropIfHighLoss:
		if p.loss[i] <= a.cfg.HighLoss {
			return level
		}
		d := clampLevel(level-1, level)
		a.armBackoffs(now, st, d, level)
		return d
	case ActReduceToSupplyOld:
		d := clampLevel(oldSupply, level)
		return d
	case ActHalveSupplyOld:
		d := clampLevel(a.halfLevel(oldSupply), level)
		a.armBackoffs(now, st, d, level)
		return d
	case ActHalveSupplyOldIfVeryHigh:
		if p.loss[i] <= a.cfg.VeryHighLoss {
			return level
		}
		return clampLevel(a.halfLevel(oldSupply), level)
	default:
		return level
	}
}

func (a *Algorithm) internalDemand(now sim.Time, p *sessionPass, i int32, level, agg int, st *nodeState, act Action) int {
	oldSupply, recentSupply := supplies(st)
	if a.coolingDown(now, st) && (act == ActHalveSupplyRecent || act == ActHalveSupplyOld) {
		return agg
	}
	switch act {
	case ActAccept:
		return agg
	case ActMaintain:
		// Do not let the subtree grow through a recently congested node,
		// but honor reductions from below.
		if level > 0 && agg > level {
			return level
		}
		return agg
	case ActHalveSupplyRecent:
		d := minInt(agg, clampLevel(a.halfLevel(recentSupply), agg))
		a.armBackoffs(now, st, d, level)
		return d
	case ActHalveSupplyOld:
		d := minInt(agg, clampLevel(a.halfLevel(oldSupply), agg))
		a.armBackoffs(now, st, d, level)
		return d
	default:
		return agg
	}
}

// halfLevel converts "half the bandwidth of a supply level" back to layers.
func (a *Algorithm) halfLevel(supply int) int {
	return a.cfg.LevelFor(a.cfg.CumRate(supply) / 2)
}

// clampLevel bounds a reduction target to [1, current]: demand never drops
// below the base layer (every session keeps at least its base layer) and a
// "reduction" never raises demand above the current level.
func clampLevel(target, current int) int {
	if current < 1 {
		// A node not yet receiving anything has nothing to reduce.
		return current
	}
	if target < 1 {
		target = 1
	}
	if target > current {
		target = current
	}
	return target
}

// armBackoffs sets the back-off timer for the highest layer being dropped
// when demand falls from level to d — the paper's rule: "this node also
// sets a backoff timer for the highest layer being dropped so that this
// layer is not subscribed to by another receiver in the near future."
// Lower dropped layers stay free to be re-added (one at a time), so a
// too-deep reduction recovers quickly while the probing layer stays barred.
func (a *Algorithm) armBackoffs(now sim.Time, st *nodeState, d, level int) {
	if d < level {
		a.setBackoff(now, st, level)
	}
}

// allocateSupply implements the supply half of stage 5: a top-down pass
// that grants each node the minimum of its demand, its parent's supply and
// what the link from its parent can carry — the estimated capacity, further
// restricted to the session's fair share where the link is shared. Receiver
// nodes are never allocated below the base layer.
func (a *Algorithm) allocateSupply(p *sessionPass) {
	for i := range p.nodes {
		par := p.parent[i]
		if par < 0 {
			p.supply[i] = minInt(p.demand[i], a.cfg.MaxLevel())
			if p.recv[i] && p.supply[i] < 1 {
				p.supply[i] = 1
			}
			continue
		}
		bw := min(a.edgeLink(p, i).capacity, p.share[i])
		allowed := a.cfg.MaxLevel()
		if !math.IsInf(bw, 1) {
			allowed = a.cfg.LevelFor(bw)
		}
		s := minInt(minInt(p.demand[i], p.supply[par]), allowed)
		if p.recv[i] && s < 1 {
			s = 1 // every registered receiver keeps the base layer
		}
		p.supply[i] = s
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
