package experiments

import (
	"encoding/json"
	"testing"
)

// quickFailureSpecs is fig_failure's quick form at seed: two sessions
// converge, the bottleneck fails and is repaired, and the run leaves them
// room to recover.
func quickFailureSpecs(seed int64) []Spec {
	return failureSpecs(SweepConfig{Seed: seed, Quick: true})
}

// TestFailureDeterministicPerSeed runs fig_failure twice under the same seed
// and requires byte-identical results: the fault schedule, the repairs, and
// every derived statistic must replay exactly.
func TestFailureDeterministicPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("full failure/repair run")
	}
	marshal := func() []byte {
		res := runSingle[*FailureResult](t, quickFailureSpecs(42))
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	a, b := marshal(), marshal()
	if string(a) != string(b) {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestFailureSessionsRecover is the headline acceptance check: through a
// bottleneck outage the trees are repaired and every session climbs back to
// its pre-failure subscription level.
func TestFailureSessionsRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("full failure/repair run")
	}
	res := runSingle[*FailureResult](t, quickFailureSpecs(7))

	if res.LinkFailures != 2 || res.LinkRepairs != 2 {
		t.Fatalf("outage did not execute: %d failures, %d repairs (want 2 each: both directions)",
			res.LinkFailures, res.LinkRepairs)
	}
	if res.TreeRepairs == 0 {
		t.Error("no tree repairs despite the bottleneck being cut")
	}
	if res.ThroughputDuring > res.ThroughputPre/10 {
		t.Errorf("bottleneck still carrying traffic during the outage: %.2f Mbps (pre %.2f)",
			res.ThroughputDuring, res.ThroughputPre)
	}
	if res.ThroughputPost < res.ThroughputPre/2 {
		t.Errorf("throughput did not come back after repair: %.2f Mbps post vs %.2f pre",
			res.ThroughputPost, res.ThroughputPre)
	}
	for _, row := range res.Rows {
		if row.PreLevel < 1 {
			t.Errorf("session %d never converged before the failure (pre level %.2f)", row.Session, row.PreLevel)
		}
		if !row.Recovered {
			t.Errorf("session %d did not recover: pre %.2f, post %.2f (min %.1f, recover %.1fs)",
				row.Session, row.PreLevel, row.PostLevel, row.MinLevel, row.RecoverS)
		}
	}
}

// TestFailureRegistered pins the registry wiring cmd/topobench depends on.
func TestFailureRegistered(t *testing.T) {
	ex, ok := Lookup("fig_failure")
	if !ok {
		t.Fatal("fig_failure not in the registry")
	}
	specs := ex.Specs(SweepConfig{Seed: 1, Quick: true})
	if len(specs) != 1 {
		t.Fatalf("fig_failure quick sweep has %d specs, want 1", len(specs))
	}
	if specs[0].Duration != QuickDuration {
		t.Errorf("quick sweep duration %v, want %v", specs[0].Duration, QuickDuration)
	}
}
