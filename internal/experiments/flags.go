package experiments

import "fmt"

// ValidateEngineFlags checks a CLI's engine- and control-plane-selection
// flags (-shards, -failat, -aggregate, -federate) for the combinations the
// simulator cannot honour, rejecting each up front with an error that names
// the flag to drop and the fallback — instead of silently running a
// different simulation than asked or crashing mid-run. toposim and
// topobench call it with the same arguments, so the matrix is enforced
// identically in both CLIs.
//
// The rejected combinations:
//
//   - -failat with -shards: tree repair after a link failure rebuilds
//     routing state across the whole network, which the conservative
//     sharded engine cannot do safely from inside one partition; only the
//     single-threaded serial engine hosts fault injection.
//
//   - -failat with -federate: repair re-homes receivers across domain
//     boundaries, but federated leaf controllers hold fixed per-domain
//     scopes — a re-homed receiver would fall out of every leaf's view.
//     Fault experiments run on the flat control plane.
//
//   - -federate with -aggregate: the in-network aggregation layer routes
//     every report toward exactly one flat controller node; the federated
//     plane already folds reports per domain at its leaf controllers, so
//     the two layers cannot serve the same world.
//
// Everything else composes: -shards with -aggregate (decision-equivalent to
// the serial flat run), -shards with -federate (leaf passes and reconciles
// run at global barriers), -aggregate with -failat (the aggregation layer
// re-resolves routes at flush time across repairs), -churn with -shards
// (the churn driver runs entirely at stop-the-world barriers), and -churn
// with -federate (a rejoin registers with its slot's own leaf, and the
// parent holds a drained domain's learned budget until it refills).
//
// shards is the -shards flag value (0 = the single-threaded engine), failAt
// the -failat seconds (0 = no fault injection), aggregate/federate the
// corresponding boolean flags, and churn the -churn mean period in seconds
// (0 = no churn).
func ValidateEngineFlags(shards int, failAt float64, aggregate, federate bool, churn float64) error {
	if failAt > 0 && shards >= 1 {
		return fmt.Errorf("-failat %g is not supported with -shards %d: "+
			"fault injection needs the whole network in one partition for tree repair, "+
			"which only the single-threaded serial engine guarantees; "+
			"drop -shards (or set -shards 0) to fall back to the serial engine",
			failAt, shards)
	}
	if failAt > 0 && federate {
		return fmt.Errorf("-failat %g is not supported with -federate: "+
			"tree repair can re-home receivers across domain boundaries, outside every "+
			"federated leaf controller's fixed scope; "+
			"drop -federate to fall back to the flat control plane",
			failAt)
	}
	if churn < 0 {
		return fmt.Errorf("-churn %g: the mean join/leave period must be positive (0 = no churn)", churn)
	}
	if federate && aggregate {
		return fmt.Errorf("-federate is not supported with -aggregate: " +
			"the in-network aggregation layer serves a single flat controller node, and the " +
			"federated plane already folds reports per domain at its leaf controllers; " +
			"drop -aggregate to run the hierarchical control plane, or drop -federate to keep " +
			"flat-controller aggregation")
	}
	return nil
}
