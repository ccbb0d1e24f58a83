package report

import (
	"math"

	"toposense/internal/sim"
)

// The entry arrays of pooled payloads live in capacity-class pools
// (sim.ArrayPool), one per entry type. A payload takes an array sized for
// what it is about to hold and gives it back on Release, so an array
// belongs to no payload between uses and a payload's capacity is at most
// twice the most it has held since it was taken, whatever it held in
// earlier lives.

// junkNode lies far outside any network: indexing by it panics.
const junkNode = -1 << 40

var (
	aggArrays = sim.NewArrayPool(AggEntry{
		Node: junkNode, Level: junkNode, Reports: math.MinInt32, LossSum: math.NaN(), Bytes: junkNode,
	})
	sugArrays = sim.NewArrayPool(SugEntry{Node: junkNode, Session: junkNode, Level: junkNode})
	// hopArrays holds the group scratch Splitters have outgrown.
	hopArrays = sim.NewArrayPool(hopBatch{next: junkNode})
)

// AggregateArraysMade returns how many entry arrays the Aggregate pool has
// made so far across the process; once a run's working set is pooled it
// stops moving.
func AggregateArraysMade() int64 { return aggArrays.Made() }

// BatchArraysMade is AggregateArraysMade for SuggestionBatch entries.
func BatchArraysMade() int64 { return sugArrays.Made() }

// SplitArraysMade is AggregateArraysMade for the Splitters' group scratch.
func SplitArraysMade() int64 { return hopArrays.Made() }
