package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"toposense/internal/obs"
	"toposense/internal/sim"
)

// obsSpec is a small Topology B run whose rows are the receivers' final
// levels — enough signal to notice any behavioural perturbation.
func obsSpec(seed int64) Spec {
	const dur = 30 * sim.Second
	return NewSpec("obstest", "obstest/B", seed, dur, func(m *Meter) (any, error) {
		w, err := Scenario{WorldConfig: WorldConfig{Seed: seed, Traffic: VBR3}, Topo: "b,sessions=2", Duration: dur.Seconds()}.Assemble(m)
		if err != nil {
			return nil, err
		}
		w.Run(dur)
		var levels []int
		for s := range w.Receivers {
			for _, rx := range w.Receivers[s] {
				levels = append(levels, rx.Level())
			}
		}
		return levels, nil
	})
}

func marshalIndent(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fedObsSpec is a small federated run on the tiered family: leaf
// controllers under a federation parent, whose reconcile loop is the one
// obs source that once read the host clock.
func fedObsSpec(seed int64) Spec {
	const dur = 60 * sim.Second
	return NewSpec("obstest", "obstest/tiered-federated", seed, dur, func(m *Meter) (any, error) {
		w, err := Scenario{WorldConfig: WorldConfig{Seed: seed, Traffic: CBR, Plane: PlaneFederated},
			Topo: "tiered,fanout=2:2,rxleaf=2", Duration: dur.Seconds()}.Assemble(m)
		if err != nil {
			return nil, err
		}
		w.Run(dur)
		return w.Parent.Reconciles, nil
	})
}

// TestObsExportDeterministic: two runs from the same seed must produce
// byte-identical observability exports — counters, histograms, flight
// recorder and audit log included — on the flat plane and on the federated
// one. This is what makes the export citable next to a figure.
func TestObsExportDeterministic(t *testing.T) {
	for _, mk := range []func(int64) Spec{obsSpec, fedObsSpec} {
		name := mk(3).Name
		var dumps [][]byte
		for i := 0; i < 2; i++ {
			s := mk(3)
			s.Obs = true
			r := s.Execute(0)
			if r.Failed() {
				t.Fatalf("%s: run %d failed: %s", name, i, r.Err)
			}
			if r.Obs == nil {
				t.Fatalf("%s: Spec.Obs set but Result.Obs is nil", name)
			}
			dumps = append(dumps, marshalIndent(t, r.Obs))
		}
		if !bytes.Equal(dumps[0], dumps[1]) {
			t.Errorf("%s: identical seeds produced different obs exports\n%s", name, firstDiff(string(dumps[0]), string(dumps[1])))
		}

		// The export must actually contain signal, or determinism is vacuous.
		var d obs.Dump
		if err := json.Unmarshal(dumps[0], &d); err != nil {
			t.Fatal(err)
		}
		nonZero := 0
		for _, c := range d.Counters {
			if c.Value > 0 {
				nonZero++
			}
		}
		if nonZero < 4 {
			t.Errorf("%s: only %d non-zero counters in export; wiring looks incomplete:\n%s", name, nonZero, dumps[0])
		}
		if d.FlightTotal == 0 || len(d.Flight) == 0 {
			t.Errorf("%s: flight recorder captured nothing", name)
		}
		if d.AuditTotal == 0 || len(d.Audit) == 0 {
			t.Errorf("%s: controller audit log captured nothing", name)
		}
	}
}

// TestObsReachesHandBuiltWorlds: the studies whose topologies were once
// built by hand — convergence, lastmile, domains and fig_churn, which also
// puts slots under churn after assembly — run on registry families through
// Scenario.Assemble, so an -obs export carries their controllers' passes and
// audit.
func TestObsReachesHandBuiltWorlds(t *testing.T) {
	for _, name := range []string{"convergence", "lastmile", "domains", "fig_churn"} {
		s := quickSpecs(t, name)[0]
		s.Obs = true
		r := s.Execute(0)
		if r.Failed() {
			t.Fatalf("%s: %s", s.Name, r.Err)
		}
		var passes int64
		for _, c := range r.Obs.Counters {
			if c.Name == "controller_passes" {
				passes = c.Value
			}
		}
		if passes == 0 || r.Obs.AuditTotal == 0 || len(r.Obs.Audit) == 0 {
			t.Errorf("%s: export has controller_passes %d and %d audited passes; the world was not wired",
				s.Name, passes, r.Obs.AuditTotal)
		}
	}
}

// TestObsDoesNotPerturbRun: enabling observability must not change what the
// simulation does — same rows, same event count, same packet count. The
// probe only watches; it never schedules.
func TestObsDoesNotPerturbRun(t *testing.T) {
	plain := obsSpec(5).Execute(0)
	observed := obsSpec(5)
	observed.Obs = true
	obsRes := observed.Execute(0)
	for _, r := range []Result{plain, obsRes} {
		if r.Failed() {
			t.Fatalf("run failed: %s", r.Err)
		}
	}
	if got, want := marshalIndent(t, obsRes.Rows), marshalIndent(t, plain.Rows); !bytes.Equal(got, want) {
		t.Errorf("observability changed the run's rows:\nwith obs: %s\nwithout:  %s", got, want)
	}
	if plain.Events != obsRes.Events {
		t.Errorf("observability changed the event count: %d without, %d with", plain.Events, obsRes.Events)
	}
	if plain.Packets != obsRes.Packets {
		t.Errorf("observability changed the packet count: %d without, %d with", plain.Packets, obsRes.Packets)
	}

	// With observability off, the BENCH JSON schema is unchanged: no "obs"
	// key at all (omitempty), so existing consumers and goldens are
	// untouched.
	if plain.Obs != nil {
		t.Error("Result.Obs non-nil without Spec.Obs")
	}
	if b := marshalIndent(t, plain); bytes.Contains(b, []byte(`"obs"`)) {
		t.Errorf("obs key leaked into the default result schema:\n%s", b)
	}
}
