package experiments

import (
	"strings"
	"testing"
)

func TestScalePointsResolution(t *testing.T) {
	if got := scalePoints(SweepConfig{Topo: "tree"}); len(got) != 4 {
		t.Errorf("tree ladder = %d points, want 4", len(got))
	}
	if got := scalePoints(SweepConfig{Quick: true}); len(got) != 2 || got[0] != scaleLadders["tree"][0] {
		t.Errorf("quick default ladder = %v, want the first two tree points", got)
	}
	if got := scalePoints(SweepConfig{Topo: "star,arms=3,rxarm=2"}); len(got) != 1 || got[0] != "star,arms=3,rxarm=2" {
		t.Errorf("explicit spec = %v, want itself as the single point", got)
	}
}

// TestScaleSmoke runs one tiny point end to end, at the full form's 30 s,
// and sanity-checks every column of the row.
func TestScaleSmoke(t *testing.T) {
	specs := scaleSpecs(SweepConfig{Seed: 1, Topo: "star,arms=3,rxarm=2,delay=0.05"})
	if len(specs) != 1 {
		t.Fatalf("specs = %d, want 1", len(specs))
	}
	results := ExecuteAll(specs)
	rows, err := GatherRows[ScaleRow](results)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	r := rows[0]
	if r.Receivers != 6 || r.Nodes != 11 {
		t.Errorf("topology sized %d rx / %d nodes, want 6/11", r.Receivers, r.Nodes)
	}
	if r.Groups == 0 || r.TableEntries == 0 || r.TableBytes == 0 {
		t.Errorf("empty state accounting: %+v", r)
	}
	if r.Passes == 0 || r.PassMaxMs < r.PassMeanMs {
		t.Errorf("pass timing implausible: %+v", r)
	}
	if r.RxBytes <= 0 || r.BytesPerReceiver <= 0 {
		t.Errorf("no delivered bytes: %+v", r)
	}
	if r.MeanDev < 0 || r.MeanDev > 1 {
		t.Errorf("MeanDev = %v out of range", r.MeanDev)
	}
	out, err := ScaleTable(results)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "star,arms=3") {
		t.Errorf("table missing the point:\n%s", out)
	}
}
