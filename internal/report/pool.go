package report

import (
	"math"
	"testing"

	"toposense/internal/sim"
)

// The entry arrays of pooled payloads live in capacity-class pools
// (sim.ArrayPool), one per entry type. A payload takes an array sized for
// what it is about to hold and gives it back on Release, so an array
// belongs to no payload between uses and a payload's capacity is at most
// twice the most it has held since it was taken, whatever it held in
// earlier lives.

// poisonReleased is on in test binaries only: the pools fill every
// released array with junk, and a released payload's Entries is junk
// itself, so a read after Release fails loudly instead of seeing numbers.
var poisonReleased = testing.Testing()

// junkNode lies far outside any network: indexing by it panics.
const junkNode = -1 << 40

var (
	aggArrays = sim.NewArrayPool(AggEntry{
		Node: junkNode, Level: junkNode, Reports: math.MinInt32, LossSum: math.NaN(), Bytes: junkNode,
	}, &poisonReleased)
	sugArrays = sim.NewArrayPool(SugEntry{Node: junkNode, Session: junkNode, Level: junkNode}, &poisonReleased)
)

// AggregateArraysMade returns how many entry arrays the Aggregate pool has
// made so far across the process; once a run's working set is pooled it
// stops moving.
func AggregateArraysMade() int64 { return aggArrays.Made() }

// BatchArraysMade is AggregateArraysMade for SuggestionBatch entries.
func BatchArraysMade() int64 { return sugArrays.Made() }
