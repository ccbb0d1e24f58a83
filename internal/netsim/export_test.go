package netsim

// Hooks for the external test package (routes_registry_test.go), which has
// to live outside package netsim because it imports internal/topology.

// TreeRouted materializes routing state and reports whether the
// Euler-interval tree mode, not the dense tables, serves it.
func (n *Network) TreeRouted() bool { n.ensureRoutes(); return n.tree != nil }

// PinDense pins the network to the dense tables, as fault injection does.
func (n *Network) PinDense() { n.ensureDenseRoutes() }
